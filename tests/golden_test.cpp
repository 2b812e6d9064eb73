/**
 * @file
 * Golden-value regressions: exact bit patterns of simulated results,
 * pinned as hex strings of doubles or FNV-1a digests over them. Each
 * case replays a scenario that once compared two implementations of
 * one layer (engine selection, channel fairness, admission batching,
 * admission headroom, event-queue front end) and now checks the one
 * remaining implementation against the values both used to produce.
 *
 * A change that only restructures or speeds up the simulator must
 * leave every pin as it is. A change that means to alter simulated
 * results must re-derive the pins and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/hash.hpp"
#include "core/plan_cache.hpp"
#include "core/priority_policy.hpp"
#include "models/model_zoo.hpp"
#include "runtime/comm_runtime.hpp"
#include "runtime/dimension_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/shared_channel.hpp"
#include "sim/sweep_runner.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"
#include "workload/convergence.hpp"
#include "workload/training_loop.hpp"

namespace themis {
namespace {

using runtime::CommRuntime;
using runtime::RuntimeConfig;
using workload::IterationBreakdown;
using workload::mixBreakdown;

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Exact bit pattern of @p v. */
std::string
bits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return hex(b);
}

/** Digest of every simulation result resultsBitIdentical compares. */
std::string
reportDigest(const workload::ConvergenceReport& r)
{
    Fnv1a h;
    mixBreakdown(h, r.total);
    mixBreakdown(h, r.last);
    for (const auto& it : r.per_iteration)
        mixBreakdown(h, it);
    h.mix(r.active_time);
    for (Bytes b : r.dim_bytes)
        h.mix(b);
    for (Bytes b : r.class_bytes)
        h.mix(b);
    h.mix(r.ops);
    h.mix(static_cast<std::uint64_t>(r.collectives));
    h.mix(r.utilization);
    return hex(h.value());
}

CollectiveRequest
request(CollectiveType type, Bytes size, int chunks,
        std::vector<ScopeDim> scope = {}, int tier = 0)
{
    CollectiveRequest req;
    req.type = type;
    req.size = size;
    req.chunks = chunks;
    req.scope = std::move(scope);
    req.priority_tier = tier;
    return req;
}

RuntimeConfig
priorityConfig(double ratio)
{
    RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.scheduler = SchedulerKind::ThemisPriority;
    cfg.priority = PriorityPolicy::tiered(ratio);
    return cfg;
}

// ------------------------------------------------------- fig12 grid

TEST(Golden, Fig12GridDigest)
{
    // The 72-cell Fig 12 grid (4 models x 6 next-gen platforms x
    // {Baseline, Themis+SCF, Ideal}, one iteration each) on two sweep
    // workers sharing one plan cache, hashed in grid order over the
    // five breakdown fields of every cell.
    const auto names = models::paperWorkloads();
    const auto topos = presets::nextGenTopologies();
    struct Method
    {
        RuntimeConfig cfg;
        bool ideal;
    };
    const std::vector<Method> methods = {
        {runtime::baselineConfig(), false},
        {runtime::themisScfConfig(), false},
        {runtime::themisScfConfig(), true}};
    std::vector<workload::ModelGraph> graphs;
    for (const auto& n : names)
        graphs.push_back(models::byName(n));
    std::vector<Topology> ideal;
    for (const auto& t : topos)
        ideal.push_back(presets::idealTopology(t));

    PlanCache cache;
    const std::size_t per_model = topos.size() * methods.size();
    const auto cells = sim::sweepIndexed(
        graphs.size() * per_model,
        [&](std::size_t i, sim::EventQueue& queue) {
            const std::size_t t = i % per_model / methods.size();
            const Method& m = methods[i % methods.size()];
            RuntimeConfig cfg = m.cfg;
            cfg.plan_cache = &cache;
            CommRuntime comm(queue, m.ideal ? ideal[t] : topos[t], cfg);
            workload::TrainingLoop loop(comm, graphs[i / per_model]);
            return loop.runIteration();
        },
        sim::SweepOptions{2});
    ASSERT_EQ(cells.size(), 72u);
    Fnv1a h;
    for (const auto& c : cells)
        mixBreakdown(h, c);
    EXPECT_EQ(hex(h.value()), "0xee2cfa05ca84f849");
}

// ------------------------------------------------ engine selection

TEST(Golden, OverlappingCollectiveDurations)
{
    // A large collective with a second, scoped one issued mid-flight,
    // under each Table 3 config and two collective types.
    Fnv1a h;
    for (const auto& cfg :
         {runtime::baselineConfig(), runtime::themisFifoConfig(),
          runtime::themisScfConfig()}) {
        for (const auto type :
             {CollectiveType::AllReduce, CollectiveType::AllToAll}) {
            sim::EventQueue queue;
            CommRuntime comm(queue, presets::make3DSwSwSwHetero(), cfg);
            const int a = comm.issue(request(type, 4.0e8, 24));
            queue.runUntil(queue.now() + 1.0e5);
            const int b = comm.issue(request(
                type, 1.0e8, 8,
                {ScopeDim{0, 0}, ScopeDim{1, 0}}));
            queue.run();
            h.mix(comm.record(a).duration());
            h.mix(comm.record(b).duration());
        }
    }
    EXPECT_EQ(hex(h.value()), "0xbbc13af9d47e12d8");
}

TEST(Golden, EnforcedOrderDurations)
{
    std::vector<std::string> got;
    for (const auto planner : {runtime::OrderPlanner::ShadowSim,
                               runtime::OrderPlanner::FastSerial}) {
        RuntimeConfig cfg = runtime::themisScfConfig();
        cfg.enforce_consistent_order = true;
        cfg.order_planner = planner;
        sim::EventQueue queue;
        CommRuntime comm(queue, presets::make3DSwSwSwHetero(), cfg);
        const int id =
            comm.issue(request(CollectiveType::AllReduce, 4.0e8, 24));
        queue.run();
        got.push_back(bits(comm.record(id).duration()));
    }
    EXPECT_EQ(got, (std::vector<std::string>{"0x41456296a9555554",
                                             "0x4144e85a36aaaaab"}));
}

// ------------------------------------------------ admission headroom

TEST(Golden, HeadroomUniformAndTieredOneDurations)
{
    // Four overlapping collectives cycling through the tiers, under a
    // uniform policy and under tiered(1) (classes separated, weights
    // all 1).
    Fnv1a h;
    for (bool tiered : {false, true}) {
        RuntimeConfig cfg = runtime::themisScfConfig();
        if (tiered)
            cfg = priorityConfig(1.0);
        sim::EventQueue q;
        CommRuntime comm(q, presets::byName("3D-SW_SW_SW_homo"), cfg);
        std::vector<int> ids;
        for (int i = 0; i < 4; ++i)
            ids.push_back(comm.issue(request(CollectiveType::AllReduce,
                                             2.0e8, 32, {},
                                             i % kNumPriorityTiers)));
        q.run();
        for (int id : ids)
            h.mix(comm.record(id).duration());
    }
    EXPECT_EQ(hex(h.value()), "0x92e19ebe55f20f49");
}

TEST(Golden, HeadroomTieredSixteenUrgentLatency)
{
    // Bulk DLRM training against an urgent periodic stream under a
    // 16x weight ladder: the urgent job's mean latency.
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(
        models::byName("DLRM"), 2, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    cluster::JobSpec infer = cluster::JobSpec::periodicInference(
        3.2e7, 3.0e5, 5.0e5, 0.0, static_cast<int>(PriorityTier::Urgent));
    infer.max_requests = 8;
    specs.push_back(infer);
    sim::EventQueue q;
    cluster::Cluster cl(q, presets::byName("2D-SW_SW"),
                        priorityConfig(16.0), specs);
    EXPECT_EQ(bits(cl.run().jobs[1].mean_latency), "0x41120ab1240c229a");
}

// ------------------------------------------------ admission batching
//
// Whole-runtime runs whose refills admit several latency-bound ops at
// once: single-tier runs, where each refill admits a prefix of the
// ready heap's pop order, and mixed-tier runs, where the bypass
// streak and tier precedence reshape the picks.

/** Small hybrid workload with MP + DP traffic (fig12-shaped). */
workload::ModelGraph
smallHybridModel()
{
    workload::ModelGraph g;
    g.name = "small-hybrid";
    g.parallel = workload::ParallelSpec::hybrid(16);
    g.fused_dp_grads = false;
    for (int i = 0; i < 3; ++i) {
        workload::Layer l;
        l.name = "l" + std::to_string(i);
        l.fwd_flops = 2.0e11;
        l.bwd_flops = 4.0e11;
        l.dp_grad_bytes = 6.0e6;
        l.fwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              workload::CommDomain::ModelParallel, true});
        l.bwd_comm.push_back({CollectiveType::AllReduce, 4.0e6,
                              workload::CommDomain::ModelParallel, true});
        g.layers.push_back(l);
    }
    return g;
}

workload::ConvergenceReport
runFull(const Topology& topo, const RuntimeConfig& cfg, int iterations)
{
    workload::ConvergenceOptions opts;
    opts.iterations = iterations;
    opts.replay = false;
    sim::EventQueue queue;
    CommRuntime comm(queue, topo, cfg);
    workload::TrainingLoop loop(comm, smallHybridModel());
    return workload::runConverged(comm, loop, opts);
}

TEST(Golden, BatchedAdmissionRuns)
{
    std::vector<std::string> got;
    for (const auto& topo :
         {presets::make2DSwSw(), presets::make3DSwSwSwHomo()})
        got.push_back(
            reportDigest(runFull(topo, runtime::themisScfConfig(), 4)));
    EXPECT_EQ(got, (std::vector<std::string>{"0xc028de8b25633787",
                                             "0x000f2e2f716c1b61"}));
}

TEST(Golden, TwoTierAdmissionCompletions)
{
    // Alternating urgent/bulk collectives under tiered(4): the mixed
    // tiers make refills weigh tier precedence and the bypass streak
    // mid-run.
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(), priorityConfig(4.0));
    for (int i = 0; i < 4; ++i)
        comm.issue(request(
            CollectiveType::AllReduce, 1.0e8, 0, {},
            static_cast<int>(i % 2 == 0 ? PriorityTier::Urgent
                                        : PriorityTier::Bulk)));
    queue.run();
    Fnv1a h;
    for (const auto& rec : comm.records())
        h.mix(rec.completed);
    EXPECT_EQ(hex(h.value()), "0xf36b829826094105");
}

TEST(Golden, EnforcedOrderConvergedRun)
{
    RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.enforce_consistent_order = true;
    EXPECT_EQ(reportDigest(runFull(presets::make2DSwSw(), cfg, 3)),
              "0x38738bea901507b6");
}

// ------------------------------------------------ engine slow paths
//
// Single-engine scenarios for the rarer selection cases of the refill
// loop: the anti-starvation pick of the oldest ready op, parking
// under a replaced enforced order, and backoff requeues into a deep
// SCF ready set. The engine's own fingerprint (every start, finish
// and failure with its timestamp) is the pin.

DimensionConfig
engineDim(TimeNs step_latency)
{
    DimensionConfig d;
    d.kind = DimKind::Switch;
    d.size = 8;
    d.link_bw_gbps = 800.0;
    d.links_per_npu = 1;
    d.step_latency_ns = step_latency;
    return d;
}

runtime::ChunkOp
engineOp(const DimensionConfig& dim, runtime::OpTag tag, Bytes entering,
         FlowClass flow = {},
         std::function<void(const runtime::ChunkOp&)> done = {})
{
    if (!done)
        done = [](const runtime::ChunkOp&) {};
    return runtime::makeChunkOp(tag, Phase::ReduceScatter, 0, 0,
                                entering, dim, std::move(done), flow);
}

TEST(Golden, BypassBoundStartOrder)
{
    // A sustained urgent stream over bulk and normal backlogs on SCF
    // engines, serial and latency-parallel, with a tight bypass bound:
    // the oldest ready op is forced through again and again. Pins the
    // start order, the streak seen at every start and the final one.
    // The streak a start listener sees is the one after that start's
    // own update (each start sets it before startOp runs).
    std::vector<std::string> got;
    for (const int max_parallel : {1, 64}) {
        sim::EventQueue q;
        const DimensionConfig dim =
            engineDim(max_parallel == 1 ? 0.0 : 2000.0);
        runtime::AdmissionConfig admission;
        admission.max_parallel_ops = max_parallel;
        admission.max_priority_bypass = 5;
        runtime::DimensionEngine engine(q, dim, 0, IntraDimPolicy::Scf,
                                        admission);
        Fnv1a h;
        engine.armFingerprint(&h);
        engine.setStartListener([&](const runtime::OpTag&) {
            h.mix(static_cast<std::uint64_t>(engine.bypassStreak()));
        });
        const FlowClass bulk{0, 1.0};
        const FlowClass normal{1, 2.0};
        const FlowClass urgent{2, 8.0};
        int remaining = 300;
        std::function<void()> feed = [&] {
            if (remaining-- <= 0)
                return;
            engine.enqueue(engineOp(
                dim, runtime::OpTag{2, remaining, 0},
                1.0e4 * (1 + remaining % 7), urgent,
                [&](const runtime::ChunkOp&) { feed(); }));
        };
        for (int i = 0; i < 24; ++i)
            engine.enqueue(engineOp(dim, runtime::OpTag{0, i, 0},
                                    2.0e5 * (24 - i) + 1.0e3 * i,
                                    bulk));
        for (int i = 0; i < 12; ++i)
            engine.enqueue(engineOp(dim, runtime::OpTag{1, i, 0},
                                    5.0e4 * (1 + i % 5), normal));
        for (int i = 0; i < 6; ++i)
            feed();
        q.run();
        got.push_back(hex(h.value()));
        got.push_back(std::to_string(engine.bypassStreak()));
    }
    EXPECT_EQ(got, (std::vector<std::string>{"0x4bf882a418420a20", "0",
                                             "0x4ebfc741d7082aa7",
                                             "0"}));
}

TEST(Golden, EnforcedOrderReplacedWhileParked)
{
    // A long op holds a serial SCF engine while collective 1 queues
    // under one enforced order; the order is then replaced (and a
    // second collective's order cleared) with ops parked.
    sim::EventQueue q;
    const DimensionConfig dim = engineDim(0.0);
    runtime::AdmissionConfig admission;
    admission.max_parallel_ops = 1;
    runtime::DimensionEngine engine(q, dim, 0, IntraDimPolicy::Scf,
                                    admission);
    Fnv1a h;
    engine.armFingerprint(&h);
    auto order = [](std::vector<int> chunks) {
        std::vector<OpKey> keys;
        for (int c : chunks)
            keys.push_back(OpKey{c, 0});
        return keys;
    };
    engine.enqueue(engineOp(dim, runtime::OpTag{0, 0, 0}, 4.0e7));
    engine.setEnforcedOrder(1, order({5, 4, 3, 2, 1, 0, 6, 7}));
    engine.setEnforcedOrder(2, order({3, 2, 1, 0}));
    for (int i = 0; i < 6; ++i)
        engine.enqueue(engineOp(dim, runtime::OpTag{1, i, 0},
                                1.0e5 * (1 + i)));
    for (int i = 0; i < 4; ++i)
        engine.enqueue(engineOp(dim, runtime::OpTag{2, i, 0},
                                3.0e5 * (4 - i)));
    for (int i = 0; i < 5; ++i)
        engine.enqueue(engineOp(dim, runtime::OpTag{3, i, 0},
                                2.0e5 + 7.0e4 * i));
    q.scheduleAfter(1.0e4, [&] {
        engine.setEnforcedOrder(1, order({0, 2, 4, 6, 7, 5, 3, 1}));
        engine.clearEnforcedOrder(2);
    });
    q.scheduleAfter(2.0e4, [&] {
        for (int i = 6; i < 8; ++i)
            engine.enqueue(engineOp(dim, runtime::OpTag{1, i, 0},
                                    5.0e4 * i));
    });
    q.run();
    EXPECT_EQ(engine.completedCount(), 18u);
    EXPECT_EQ(hex(h.value()), "0xab35706b33746dfb");
}

TEST(Golden, JitteredFlapStormOnDeepScfQueue)
{
    // 400 SCF ops of distinct sizes queued at once on a latency-bound
    // dimension, then a storm of flaps and partial failures: every
    // failed op backs off with seeded jitter and re-enters a long
    // ready set.
    sim::EventQueue q;
    const DimensionConfig dim = engineDim(1500.0);
    runtime::DimensionEngine engine(q, dim, 0, IntraDimPolicy::Scf,
                                    runtime::AdmissionConfig{});
    runtime::RetryConfig retry;
    retry.jitter = 0.5;
    engine.armFaults(retry);
    Fnv1a h;
    engine.armFingerprint(&h);
    for (int i = 0; i < 400; ++i)
        engine.enqueue(engineOp(dim, runtime::OpTag{i % 3, i, 0},
                                2.0e4 + 1.7e3 * ((i * 37) % 400)));
    for (int k = 0; k < 6; ++k) {
        const TimeNs at = 2.0e4 + 3.5e4 * k;
        q.schedule(at, [&] { engine.setLinkDown(true); });
        q.schedule(at + 4.0e3, [&] { engine.setLinkDown(false); });
        q.schedule(at + 1.5e4, [&] { engine.failInFlight(); });
    }
    q.run();
    EXPECT_EQ(engine.completedCount(), 400u);
    EXPECT_EQ(hex(h.value()), "0x8739f53d26969aa0");
    EXPECT_EQ(engine.retryCount(), 436u);
    EXPECT_EQ(bits(engine.lostBytes()), "0x416851d610000000");
}

// ------------------------------------------------ channel fairness

struct Outcome
{
    TimeNs duration;
    double util;
};

Outcome
runOnce(const Topology& topo, const RuntimeConfig& cfg, Bytes size,
        int chunks)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, topo, cfg);
    const int id =
        comm.issue(request(CollectiveType::AllReduce, size, chunks));
    queue.run();
    return {comm.record(id).duration(),
            comm.utilization().weightedUtilization()};
}

TEST(Golden, Fig08SizeSweep)
{
    Fnv1a h;
    const Topology topo = presets::byName("2D-SW_SW");
    for (const auto& cfg :
         {runtime::baselineConfig(), runtime::themisFifoConfig(),
          runtime::themisScfConfig()}) {
        for (Bytes size : {1.0e8, 5.0e8, 1.0e9}) {
            const Outcome o = runOnce(topo, cfg, size, 64);
            h.mix(o.duration);
            h.mix(o.util);
        }
    }
    EXPECT_EQ(hex(h.value()), "0xa1950d8e3c416205");
}

TEST(Golden, Fig10ChunkSweep)
{
    Fnv1a h;
    const Topology topo = presets::byName("3D-SW_SW_SW_homo");
    for (int chunks : {4, 16, 64}) {
        for (bool enforce : {false, true}) {
            RuntimeConfig cfg = runtime::themisScfConfig();
            cfg.enforce_consistent_order = enforce;
            const Outcome o = runOnce(topo, cfg, 5.0e8, chunks);
            h.mix(o.duration);
            h.mix(o.util);
        }
    }
    EXPECT_EQ(hex(h.value()), "0xdbaf334e1c070f8b");
}

TEST(Golden, Fig12TrainingIterations)
{
    const auto workloads = models::paperWorkloads();
    ASSERT_GE(workloads.size(), 2u);
    std::vector<std::string> got;
    for (std::size_t w = 0; w < 2; ++w) {
        sim::EventQueue queue;
        CommRuntime comm(queue, presets::byName("2D-SW_SW"),
                         runtime::themisScfConfig());
        workload::TrainingLoop loop(comm, models::byName(workloads[w]));
        Fnv1a h;
        mixBreakdown(h, loop.runIteration());
        got.push_back(hex(h.value()));
    }
    EXPECT_EQ(got, (std::vector<std::string>{"0xf92504cd922e1de9",
                                             "0x079961f3aff3d5c7"}));
}

TEST(Golden, ChannelBeginAbortScript)
{
    // Six staggered transfers on one channel, the fourth aborted
    // mid-flight: every completion time, then progressed bytes and
    // busy time.
    sim::EventQueue q;
    sim::SharedChannel ch(q, 37.5);
    std::vector<TimeNs> times;
    sim::SharedChannel::TransferId victim = 0;
    for (int i = 0; i < 6; ++i) {
        q.scheduleAfter(static_cast<TimeNs>(i) * 13.0, [&, i] {
            const auto id = ch.begin(1.0e5 * (i + 1) + 0.37 * i,
                                     [&] { times.push_back(q.now()); });
            if (i == 3)
                victim = id;
        });
    }
    q.scheduleAfter(5000.0, [&] { ch.abort(victim); });
    q.run();
    ch.sync();
    times.push_back(ch.progressedBytes());
    times.push_back(ch.busyTime());
    std::vector<std::string> got;
    for (TimeNs t : times)
        got.push_back(bits(t));
    EXPECT_EQ(got, (std::vector<std::string>{
                       "0x40cb7c3555555555", "0x40d835c7dbf487fc",
                       "0x40e00554e075f6fd", "0x40e53c90ce703afb",
                       "0x40e68a39a7cca9d8", "0x413a69fb90a3d70a",
                       "0x40e68a39a7cca9d8"}));
}

// ------------------------------------------------ cluster and faults

TEST(Golden, TwoThreeClusterMix)
{
    // Bulk DLRM training plus two urgent periodic tenants at cadences
    // 2:3 (a 6-round cycle) under tiered(4): the steady epoch
    // fingerprint and results of the converged run with and without
    // replay, and the plain cluster makespan.
    std::vector<cluster::JobSpec> specs;
    specs.push_back(cluster::JobSpec::training(
        models::byName("DLRM"), 30, 0.0,
        static_cast<int>(PriorityTier::Bulk)));
    specs.push_back(cluster::JobSpec::periodicInference(
        1.6e7, 2.0e5, 0.0, 0.0, static_cast<int>(PriorityTier::Urgent)));
    specs.push_back(cluster::JobSpec::periodicInference(
        3.2e7, 3.0e5, 0.0, 0.0, static_cast<int>(PriorityTier::Urgent)));
    const Topology topo = presets::byName("2D-SW_SW");

    std::vector<std::string> got;
    for (bool replay : {true, false}) {
        workload::ConvergenceOptions opts;
        opts.iterations = 30;
        opts.replay = replay;
        sim::EventQueue q;
        cluster::Cluster cl(q, topo, priorityConfig(4.0), specs);
        const auto r = cl.runConverged(opts);
        got.push_back(hex(r.steady_fingerprint));
        got.push_back(reportDigest(r));
    }
    // The plain run needs bounded tenants: 15 and 10 requests keep
    // the 2:3 ratio over the training job's span.
    specs[1].max_requests = 15;
    specs[2].max_requests = 10;
    sim::EventQueue q;
    cluster::Cluster cl(q, topo, priorityConfig(4.0), specs);
    got.push_back(bits(cl.run().makespan));
    EXPECT_EQ(got, (std::vector<std::string>{
                       "0x56f1f2eaa9325247", "0xa146a8b7638e0aca",
                       "0x56f1f2eaa9325247", "0xa146a8b7638e0aca",
                       "0x416eed7c52966afa"}));
}

TEST(Golden, FaultAdaptRun)
{
    // DLRM under a degrade window, a straggler and a flap storm, with
    // seeded retry jitter and adaptive re-planning on.
    const sim::FaultTimeline tl = sim::FaultTimeline::parse(
        "degrade@2e5+4e5:dim=0,factor=0.5;straggler@1e6:dim=1,"
        "factor=0.8;storm@3e5+1e6:dim=1,flaps=6,down=2e4");
    RuntimeConfig cfg = runtime::themisScfConfig();
    cfg.faults = &tl;
    cfg.adaptation.enabled = true;
    cfg.retry.jitter = 0.5;
    sim::EventQueue q;
    CommRuntime comm(q, presets::byName("2D-SW_SW"), cfg);
    workload::TrainingLoop loop(comm, models::byName("DLRM"));
    workload::ConvergenceOptions opts;
    opts.iterations = 8;
    const auto r = workload::runConverged(comm, loop, opts);
    std::uint64_t retries = 0;
    for (int d = 0; d < comm.topology().numDims(); ++d)
        retries += comm.engine(d).retryCount();
    EXPECT_EQ(reportDigest(r), "0x647730d318a3b1cc");
    EXPECT_EQ(hex(comm.capacityFingerprint()), "0xfeeb67df025f1b18");
    EXPECT_EQ(comm.replanCount(), 3u);
    EXPECT_EQ(retries, 177u);
}

TEST(Golden, Fig9ActivityRates)
{
    // bench_fig09_activity's scenario: per-dimension presence spans of
    // a 1 GB All-Reduce on 3D-SW_SW_SW_homo under each Table 3 config,
    // bucketed into 100 us activity rates.
    const Topology topo = presets::make3DSwSwSwHomo();
    const int dims = topo.numDims();
    Fnv1a h;
    for (const auto& cfg :
         {runtime::baselineConfig(), runtime::themisFifoConfig(),
          runtime::themisScfConfig()}) {
        std::vector<stats::ActivitySpans> spans(
            static_cast<std::size_t>(dims));
        std::vector<TimeNs> since(spans.size(), 0.0);
        sim::EventQueue queue;
        CommRuntime comm(queue, topo, cfg);
        for (int d = 0; d < dims; ++d)
            comm.engine(d).setPresenceListener(
                [&](int dim, bool present, TimeNs when) {
                    const auto k = static_cast<std::size_t>(dim);
                    if (present)
                        since[k] = when;
                    else if (when > since[k])
                        spans[k].emplace_back(since[k], when);
                });
        comm.issue(request(CollectiveType::AllReduce, 1.0e9, 64));
        queue.run();
        for (const auto& dim :
             stats::activityRates(spans, 100.0 * kUs, queue.now())) {
            h.mix(static_cast<std::uint64_t>(dim.size()));
            for (double r : dim)
                h.mix(r);
        }
    }
    EXPECT_EQ(hex(h.value()), "0xaeb1f978c36bd3e3");
}

} // namespace
} // namespace themis
