/**
 * @file
 * whatif: one client asks single-collective questions in a closed loop,
 * the way a user drives `themis_cli --serve`: one query is one
 * collective on one platform under one scheduler, like one --serve
 * line. Each seeded draw is asked on the six next-gen platforms under
 * Baseline, Themis+FIFO and Themis+SCF, one query after another. One
 * query in four repeats an earlier key and is answered from a
 * sim::ResultStore; the rest simulate and append. The event loop and
 * Themis planning dominate here, because every fresh size misses the
 * plan cache.
 *
 * A session is the fixed seeded list of queries on a fresh store and a
 * fresh plan cache, as a fresh --serve process would see them. A run
 * repeats whole sessions, at least kMinSessions of them and until
 * --seconds have passed. Each query's latency is its best over the
 * sessions, and rates come from the sum of those bests.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "core/ideal_estimator.hpp"
#include "probes.hpp"
#include "sim/result_store.hpp"
#include "topology/presets.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace themis;

/**
 * The draws of a session hold the target mix exactly: 35 All-Reduce
 * and 5 each of Reduce-Scatter, All-Gather and All-to-All. Within each
 * type every chunk count occurs equally often and the sizes take one
 * draw per equal-width stratum of 100 MB-1 GB; the draws are then
 * shuffled. Every seed asks the same mix, so seeds differ in the draws
 * and not in the mix.
 */
constexpr std::pair<CollectiveType, std::size_t> kDrawMix[] = {
    {CollectiveType::AllReduce, 35},
    {CollectiveType::ReduceScatter, 5},
    {CollectiveType::AllGather, 5},
    {CollectiveType::AllToAll, 5}};
constexpr int kChunkChoices[] = {16, 32, 64, 128, 256};
constexpr double kMinSize = 100.0e6;
constexpr double kMaxSize = 1.0e9;

/**
 * Each group of kRepeatGroup queries holds one repeat of an earlier
 * key, at a random slot. A session's 50 draws x 18 answers = 900 fresh
 * queries plus 300 repeats make 1200 queries, so p99 has 12 beyond it.
 */
constexpr std::size_t kRepeatGroup = 4;

/** Sessions per run, at the least: each query's best is over these. */
constexpr int kMinSessions = 5;

/** Store hits re-simulated after the run to check the store. */
constexpr std::size_t kHitSample = 16;

/** Draws whose collectives the plan probe re-times. */
constexpr std::size_t kPlanProbeDraws = 10;

struct Scheme
{
    const char* name;
    runtime::RuntimeConfig cfg;
};

struct Draw
{
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;
    int chunks = 64;
};

struct Query
{
    std::size_t draw = 0;
    std::size_t topo = 0;
    std::size_t scheme = 0;
    /** Index of this key's first occurrence in the session. */
    std::size_t first = 0;
    std::string key;
};

std::vector<Draw>
generateDraws(Rng& rng)
{
    std::vector<Draw> draws;
    for (const auto& [type, n] : kDrawMix) {
        std::vector<int> chunks;
        const double width = (kMaxSize - kMinSize) / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i)
            chunks.push_back(kChunkChoices[i % std::size(kChunkChoices)]);
        rng.shuffle(chunks);
        for (std::size_t i = 0; i < n; ++i) {
            Draw d;
            d.type = type;
            d.size = kMinSize +
                     width * (static_cast<double>(i) + rng.uniformReal(0.0, 1.0));
            d.chunks = chunks[i];
            draws.push_back(d);
        }
    }
    rng.shuffle(draws);
    return draws;
}

/** The client's query list: each draw's answers in turn, with repeats. */
std::vector<Query>
generateQueries(Rng& rng, const std::vector<Draw>& draws,
                const std::vector<Topology>& topos,
                const std::vector<Scheme>& schemes)
{
    std::vector<Query> fresh;
    for (std::size_t d = 0; d < draws.size(); ++d)
        for (std::size_t t = 0; t < topos.size(); ++t)
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                Query q;
                q.draw = d;
                q.topo = t;
                q.scheme = s;
                q.key = sim::makeResultKey(
                    {{"topo", topos[t].name()},
                     {"sched", schemes[s].name},
                     {"type", collectiveTypeName(draws[d].type)},
                     {"size", exact(draws[d].size)},
                     {"chunks", std::to_string(draws[d].chunks)}});
                fresh.push_back(std::move(q));
            }

    std::vector<Query> out;
    std::vector<std::size_t> asked; // positions in out of fresh queries
    std::size_t next = 0;
    while (next < fresh.size()) {
        const auto repeat_slot =
            static_cast<std::size_t>(rng.uniformInt(1, kRepeatGroup - 1));
        for (std::size_t slot = 0; slot < kRepeatGroup; ++slot) {
            if (slot == repeat_slot) {
                const auto pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(asked.size()) - 1));
                Query repeat = out[asked[pick]];
                out.push_back(std::move(repeat));
            } else if (next < fresh.size()) {
                asked.push_back(out.size());
                out.push_back(fresh[next++]);
                out.back().first = asked.back();
            }
        }
    }
    return out;
}

/** Everything set up before the first query. */
struct Setup
{
    std::vector<Topology> topos;
    /** Whole-platform latency models, for the ideal lower bound. */
    std::vector<LatencyModel> models;
    std::vector<Scheme> schemes;
    std::vector<Draw> draws;
    std::vector<Query> queries;
    std::unique_ptr<sim::ResultStore> store;
    std::string store_path;
    std::uint64_t digest = 0;
};

void
buildSetup(Setup& st, const Args& args, const std::string& store_name)
{
    st.topos = presets::nextGenTopologies();
    st.models.clear();
    for (const auto& t : st.topos)
        st.models.push_back(LatencyModel::fromTopology(t));
    st.schemes = {{"Baseline", runtime::baselineConfig()},
                  {"Themis+FIFO", runtime::themisFifoConfig()},
                  {"Themis+SCF", runtime::themisScfConfig()}};
    Rng rng(args.seed);
    st.draws = generateDraws(rng);
    st.queries = generateQueries(rng, st.draws, st.topos, st.schemes);
    Fnv1a h;
    for (const Query& q : st.queries) {
        const Draw& d = st.draws[q.draw];
        h.mix(static_cast<std::uint64_t>(d.type));
        h.mix(d.size);
        h.mix(static_cast<std::uint64_t>(d.chunks));
        h.mix(static_cast<std::uint64_t>(q.topo));
        h.mix(static_cast<std::uint64_t>(q.scheme));
        h.mix(static_cast<std::uint64_t>(q.first));
    }
    st.digest = h.value();
    st.store_path = args.out_dir + "/" + store_name;
    st.store.reset();
    std::filesystem::remove(st.store_path);
    st.store = std::make_unique<sim::ResultStore>(st.store_path);
}

/** One simulated answer plus what the layers counted. */
struct Answer
{
    TimeNs time = 0.0;
    double util = 0.0;
    std::vector<double> per_dim_util;
    std::uint64_t events = 0;
    std::uint64_t chunk_ops = 0;
};

Answer
simulate(const Setup& st, const Query& q, PlanCache* cache, Trace& trace,
         std::uint64_t request, PlanProbe* probe)
{
    const Topology& topo = st.topos[q.topo];
    const Draw& d = st.draws[q.draw];
    runtime::RuntimeConfig cfg = st.schemes[q.scheme].cfg;
    cfg.plan_cache = cache;
    sim::EventQueue queue;
    std::optional<runtime::CommRuntime> comm;
    CollectiveRequest req;
    req.type = d.type;
    req.size = d.size;
    req.chunks = d.chunks;
    int id = 0;
    {
        ScopedSpan span(trace, "runtime.issue", request);
        comm.emplace(queue, topo, cfg);
        id = comm->issue(req);
    }
    Answer a;
    {
        ScopedSpan span(trace, "sim.run", request);
        a.events = queue.run();
    }
    comm->finalizeStats();
    a.time = comm->record(id).duration();
    a.util = comm->utilization().weightedUtilization();
    a.per_dim_util = comm->utilization().perDimUtilization();
    a.chunk_ops = chunkOps(*comm);
    if (probe != nullptr)
        probe->addRecords(topo, cfg, comm->records(), d.chunks);
    return a;
}

/** What one run (all its sessions) measured. */
struct RunLog
{
    /** [session][query] latency in ms. */
    std::vector<std::vector<double>> latency_ms;
    std::vector<double> session_ns;

    // First session only: fixed work, so these repeat exactly.
    std::uint64_t simulations = 0;
    std::uint64_t events = 0;
    std::uint64_t chunk_ops = 0;
    /** Per query: {time_ns, util}, empty when the query failed. */
    std::vector<std::vector<double>> first_answers;
    std::vector<char> first_hit;
    PlanCache::Stats first_cache;
    DimUtil dim_util;
    PlanProbe plan_probe;

    Trace trace;
};

/**
 * Whole sessions, at least kMinSessions and until --seconds have
 * passed. @p between runs after each session.
 */
RunLog
runSessions(Setup& st, const Args& args, bool traced, Outcome& out,
            const std::function<void()>& between)
{
    RunLog log;
    log.trace = Trace(traced);
    const double deadline = nowNs() + args.seconds * 1e9;
    std::uint64_t request = 0;
    for (int session = 0; session < kMinSessions || nowNs() < deadline;
         ++session) {
        // Every session starts on an empty store; the untraced run's
        // first one uses the store that set-up opened.
        if (st.store->size() > 0) {
            st.store.reset();
            std::filesystem::remove(st.store_path);
            st.store = std::make_unique<sim::ResultStore>(st.store_path);
        }
        PlanCache cache;
        const bool first = session == 0;
        log.latency_ms.emplace_back();
        const double session_start = nowNs();
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
            const Query& q = st.queries[i];
            const Draw& d = st.draws[q.draw];
            ++request;
            out.attempted += 1;
            std::vector<double> answer;
            bool hit = false;
            bool ok = true;
            const double t0 = nowNs();
            try {
                ScopedSpan root(log.trace, "query", request);
                const sim::ResultRecord* rec = nullptr;
                {
                    ScopedSpan span(log.trace, "sim.result_store.find",
                                    request);
                    rec = st.store->find(q.key);
                }
                if (rec != nullptr) {
                    hit = true;
                    for (const auto& [name, v] : rec->values)
                        answer.push_back(v);
                } else {
                    PlanProbe* probe =
                        traced && first && q.draw < kPlanProbeDraws
                            ? &log.plan_probe
                            : nullptr;
                    const Answer a =
                        simulate(st, q, &cache, log.trace, request, probe);
                    answer = {a.time, a.util};
                    if (first) {
                        ++log.simulations;
                        log.events += a.events;
                        log.chunk_ops += a.chunk_ops;
                        if (q.scheme == 2 &&
                            d.type == CollectiveType::AllReduce)
                            log.dim_util.add(st.topos[q.topo].name(),
                                             a.per_dim_util);
                    }
                    sim::ResultRecord rec_out;
                    rec_out.key = q.key;
                    rec_out.values = {{"time_ns", a.time}, {"util", a.util}};
                    ScopedSpan span(log.trace, "sim.result_store.append",
                                    request);
                    st.store->append(std::move(rec_out));
                }
            } catch (const std::exception& e) {
                out.fail("query " + std::to_string(i) + ": " + e.what());
                ok = false;
            }
            log.latency_ms.back().push_back((nowNs() - t0) * 1e-6);
            if (!ok) {
                if (first) {
                    log.first_answers.emplace_back();
                    log.first_hit.push_back(0);
                }
                continue;
            }

            // Output checks, outside the timed region.
            const TimeNs ideal =
                idealCollectiveTime(d.type, d.size, st.models[q.topo]);
            const bool good = answer.size() == 2 && answer[0] >= ideal;
            bool same = true;
            if (!first) {
                const auto& ref = log.first_answers[i];
                same = ref.size() == answer.size();
                for (std::size_t k = 0; same && k < ref.size(); ++k)
                    same = bitEquals(ref[k], answer[k]);
            }
            if (!good)
                out.fail("query " + std::to_string(i) +
                         " answered below idealCollectiveTime");
            else if (!same)
                out.fail("query " + std::to_string(i) + " session " +
                         std::to_string(session) +
                         " differs from the first session");
            if (first) {
                log.first_answers.push_back(answer);
                log.first_hit.push_back(hit ? 1 : 0);
            }
        }
        log.session_ns.push_back(nowNs() - session_start);
        if (first)
            log.first_cache = cache.stats();
        if (between)
            between();
    }
    return log;
}

/** Re-simulate a seeded sample of store hits without a plan cache. */
void
verifyHits(const Setup& st, const RunLog& log, const Args& args,
           Outcome& out)
{
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < log.first_hit.size(); ++i)
        if (log.first_hit[i] != 0)
            hits.push_back(i);
    Rng rng(args.seed ^ 0x68697473ULL);
    rng.shuffle(hits);
    hits.resize(std::min(hits.size(), kHitSample));
    Trace off;
    for (const std::size_t i : hits) {
        const auto& stored = log.first_answers[i];
        const Answer a = simulate(st, st.queries[i], nullptr, off, 0, nullptr);
        if (stored.size() != 2 || !bitEquals(a.time, stored[0]) ||
            !bitEquals(a.util, stored[1]))
            out.fail("store hit for query " + std::to_string(i) +
                     " differs from a fresh simulation");
    }
    out.notes.push_back("checked: " + std::to_string(hits.size()) +
                        " sampled store hits re-simulated bit-identical");
}

void
endToEnd(const Setup& st, const RunLog& log, Outcome& out)
{
    auto& m = out.metrics;
    // A session's time, rebuilt from each query's best latency, so a
    // stall has to hit the same query in every session to count.
    const std::vector<double> latency = bestPerRequest(log.latency_ms);
    double session_s = 0.0;
    for (const double ms : latency)
        session_s += ms * 1e-3;
    const auto queries = static_cast<double>(st.queries.size());
    m["queries_per_sec"] = queries / session_s;
    m["query_p50_ms"] = quantile(latency, 0.50);
    m["query_p99_ms"] = quantile(latency, 0.99);
    m["cells_per_sec"] = static_cast<double>(log.simulations) / session_s;
    m["iters_per_sec"] = queries / session_s; // one answer per query

    // Simulated outcomes over the first session's fresh answers.
    const std::size_t per_draw = st.topos.size() * st.schemes.size();
    std::vector<std::vector<double>> time(st.draws.size(),
                                          std::vector<double>(per_draw));
    std::vector<std::vector<double>> util = time;
    for (std::size_t i = 0; i < log.first_answers.size(); ++i) {
        const Query& q = st.queries[i];
        const auto& a = log.first_answers[i];
        if (q.first != i || a.size() != 2)
            continue;
        time[q.draw][q.topo * st.schemes.size() + q.scheme] = a[0];
        util[q.draw][q.topo * st.schemes.size() + q.scheme] = a[1];
    }
    double util_base = 0.0, util_scf = 0.0, log_speedup = 0.0, sim_ns = 0.0;
    std::size_t pairs = 0;
    for (std::size_t d = 0; d < st.draws.size(); ++d)
        for (std::size_t t = 0; t < st.topos.size(); ++t) {
            const std::size_t base = t * st.schemes.size();
            const std::size_t scf = base + 2;
            if (st.draws[d].type == CollectiveType::AllReduce) {
                util_base += util[d][base];
                util_scf += util[d][scf];
            }
            log_speedup += std::log(time[d][base] / time[d][scf]);
            ++pairs;
            for (std::size_t s = 0; s < st.schemes.size(); ++s)
                sim_ns += time[d][base + s];
        }
    m["sim_bw_util_gain"] = util_scf / util_base;
    m["sim_iter_speedup"] = std::exp(log_speedup / static_cast<double>(pairs));
    m["sim_train_time_s"] = sim_ns * 1e-9;
    out.notes.push_back(
        "whatif: " + std::to_string(log.session_ns.size()) +
        " sessions of " + std::to_string(st.queries.size()) + " queries (" +
        std::to_string(log.simulations) +
        " simulations each); latency percentiles over " +
        std::to_string(latency.size()) + " per-query bests, which sum to " +
        exact(session_s) + " s");
}

void
perLayer(const RunLog& plain, const RunLog& traced, Outcome& out)
{
    auto& m = out.metrics;
    const auto layers = layerTimes(traced.trace.spans());
    auto total = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.total_ns;
    };
    auto mean = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_ns /
                         static_cast<double>(it->second.count);
    };
    // Counts are per session and every session repeats the first.
    const auto sessions = static_cast<double>(traced.session_ns.size());
    m["sim.run_ns_per_event"] =
        total("sim.run") / (static_cast<double>(traced.events) * sessions);
    m["sim.events"] = static_cast<double>(traced.events);
    m["runtime.issue_us"] = mean("runtime.issue") * 1e-3;
    m["core.plan_ns_per_chunk"] = traced.plan_probe.nsPerChunk();
    const auto& c = traced.first_cache;
    m["core.plan_cache.hit_ratio"] =
        static_cast<double>(c.plan_hits) /
        static_cast<double>(c.plan_hits + c.plan_misses);
    m["runtime.chunk_ops"] = static_cast<double>(traced.chunk_ops);
    m["runtime.ns_per_chunk_op"] =
        total("sim.run") / (static_cast<double>(traced.chunk_ops) * sessions);
    double wall_ns = 0.0;
    for (const double ns : traced.session_ns)
        wall_ns += ns;
    m["sim.sweep.worker_idle_frac"] = (wall_ns - total("query")) / wall_ns;
    m["sim.result_store.find_us"] = mean("sim.result_store.find") * 1e-3;
    m["sim.result_store.append_us"] =
        mean("sim.result_store.append") * 1e-3;
    std::size_t hits = 0;
    for (const char h : traced.first_hit)
        hits += h != 0 ? 1 : 0;
    m["sim.result_store.hit_ratio"] =
        static_cast<double>(hits) /
        static_cast<double>(traced.first_hit.size());
    m["model.dim_util_min"] = traced.dim_util.min();
    m["model.dim_util_max"] = traced.dim_util.max();
    // A lone collective has no compute to hide behind.
    m["model.exposed_comm_frac"] = 1.0;
    double traced_ms = 0.0, plain_ms = 0.0;
    for (const double ms : bestPerRequest(traced.latency_ms))
        traced_ms += ms;
    for (const double ms : bestPerRequest(plain.latency_ms))
        plain_ms += ms;
    m["bench.trace_overhead"] = traced_ms / plain_ms;
}

} // namespace

Outcome
runWhatIf(const Args& args)
{
    Outcome out;
    Setup st, spare;
    SetupTimer setup;
    setup.initial([&] { buildSetup(st, args, "whatif-store.jsonl"); });
    out.input_digest = st.digest;

    const RunLog plain = runSessions(st, args, false, out, [&] {
        setup.time([&] { buildSetup(spare, args, "whatif-setup.jsonl"); });
    });
    out.metrics["setup_s"] = setup.medianSeconds();
    spare.store.reset();
    std::filesystem::remove(spare.store_path);
    endToEnd(st, plain, out);
    out.metrics["peak_rss_mb"] = peakRssMb();
    verifyHits(st, plain, args, out);
    if (args.trace) {
        const RunLog traced = runSessions(st, args, true, out, {});
        perLayer(plain, traced, out);
        writeTrace(args.out_dir + "/whatif.trace.json", traced.trace.spans(),
                   "whatif", args.seed);
        Outcome traced_e2e;
        endToEnd(st, traced, traced_e2e);
        out.notes.push_back(
            "traced run queries_per_sec " +
            exact(traced_e2e.metrics["queries_per_sec"]) + " vs untraced " +
            exact(out.metrics["queries_per_sec"]) +
            " (end-to-end metrics come from the untraced run)");
    }
    st.store.reset();
    std::filesystem::remove(st.store_path);
    return out;
}

} // namespace perfbench
