/**
 * @file
 * Benchmark entry point for the simulator.
 *
 *   perfbench --workload whatif|fig12|longrun --seed N --seconds S
 *             --trace 0|1 [--out DIR]
 *
 * Runs one workload and prints human-readable lines, then, as the last
 * line of stdout, one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
 *
 * With --trace 0 the metrics are the end-to-end catalogue, measured
 * untraced. With --trace 1 the workload also runs traced and the
 * metrics are the per-layer catalogue. Exits 2 on bad arguments and 1
 * when the workload throws; neither prints a result line.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "whatif|fig12|longrun --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

/** Strict unsigned parse of a flag value. */
std::uint64_t
parseCount(const std::string& flag, const std::string& v)
{
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0')
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    a.out_dir = ".bench_build/perfbench-out";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseCount(flag, v);
            have_seed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseCount(flag, v);
            if (s < 1 || s > 120)
                usage("--seconds must be in [1, 120]");
            a.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
            have_trace = true;
        } else if (flag == "--out") {
            a.out_dir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload != "whatif" && a.workload != "fig12" &&
        a.workload != "longrun")
        usage("--workload must be whatif, fig12 or longrun");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return a;
}

void
printResult(const Outcome& out, bool trace)
{
    const auto& catalogue = trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDef& def : catalogue) {
        const auto it = out.metrics.find(def.name);
        // A per-layer metric a workload never reaches reads 0; an
        // end-to-end metric must always be measured.
        if (it == out.metrics.end() && !trace)
            throw std::logic_error(std::string("end-to-end metric ") +
                                   def.name + " was not measured");
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        std::printf("metric %-36s %24s %s\n", def.name, exact(v).c_str(),
                    def.unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + def.name + "\": {\"value\": " +
                   exact(v) + ", \"unit\": \"" + def.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(args.out_dir);
        const Outcome out = args.workload == "whatif" ? runWhatIf(args)
                            : args.workload == "fig12" ? runFig12(args)
                                                       : runLongRun(args);
        std::printf("workload %s seed %llu seconds %g trace %d\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? 1 : 0);
        std::printf("inputs digest %s\n", hex16(out.input_digest).c_str());
        for (const std::string& line : out.notes)
            std::printf("%s\n", line.c_str());
        std::printf("failed_frac %s (%llu of %llu requests)\n",
                    exact(static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted))
                        .c_str(),
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted));
        printResult(out, args.trace);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
