/**
 * @file
 * CommRuntime facade tests: scope normalization and caching, record
 * bookkeeping, trace integration, utilization windows across
 * overlapping scoped collectives, and error paths.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "runtime/comm_runtime.hpp"
#include "stats/trace_writer.hpp"
#include "topology/presets.hpp"

namespace themis::runtime {
namespace {

CollectiveRequest
request(CollectiveType type, Bytes size, int chunks,
        std::vector<ScopeDim> scope = {})
{
    CollectiveRequest req;
    req.type = type;
    req.size = size;
    req.chunks = chunks;
    req.scope = std::move(scope);
    return req;
}

TEST(CommRuntime, ScopeNormalizationErrors)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    auto issue = [&](std::vector<ScopeDim> scope) {
        comm.issue(request(CollectiveType::AllReduce, 1.0e6, 2,
                           std::move(scope)));
    };
    EXPECT_THROW(issue({ScopeDim{3, 0}}), ConfigError);   // no dim 3
    EXPECT_THROW(issue({ScopeDim{1, 0}, ScopeDim{0, 0}}), // unordered
                 ConfigError);
    EXPECT_THROW(issue({ScopeDim{0, 32}}), ConfigError);  // too big
    EXPECT_THROW(issue({ScopeDim{0, 1}}), ConfigError);   // degenerate
}

TEST(CommRuntime, DefaultChunksApplied)
{
    sim::EventQueue queue;
    auto cfg = themisScfConfig();
    cfg.default_chunks = 7;
    CommRuntime comm(queue, presets::make2DSwSw(), cfg);
    comm.issue(request(CollectiveType::AllReduce, 7.0e6, 0));
    queue.run();
    // 7 chunks x (RS+AG on 2 dims) = 28 ops over both engines.
    EXPECT_EQ(comm.engine(0).completedCount() +
                  comm.engine(1).completedCount(),
              28u);
}

TEST(CommRuntime, PerScopeSchedulerStateIsIsolated)
{
    // Carry-over load tracking must be per scope: traffic on the MP
    // scope must not perturb the DP scope's scheduler.
    sim::EventQueue queue;
    auto cfg = themisScfConfig();
    cfg.themis.carry_load_across_collectives = true;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(), cfg);
    const std::vector<ScopeDim> mp{ScopeDim{0, 0}, ScopeDim{1, 0}};
    const std::vector<ScopeDim> dp{ScopeDim{2, 0}};
    comm.issue(request(CollectiveType::AllReduce, 8.0e6, 4, mp));
    comm.issue(request(CollectiveType::AllReduce, 8.0e6, 4, dp));
    queue.run();
    EXPECT_EQ(comm.records().size(), 2u);
    for (const auto& rec : comm.records())
        EXPECT_TRUE(rec.done());
}

TEST(CommRuntime, OverlappingScopedCollectivesShareOneWindow)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHomo(),
                     themisScfConfig());
    // Two disjoint-scope collectives issued together: one
    // communication-active window covering both.
    comm.issue(request(CollectiveType::AllReduce, 64.0e6, 8,
                       {ScopeDim{0, 0}}));
    comm.issue(request(CollectiveType::AllReduce, 64.0e6, 8,
                       {ScopeDim{2, 0}}));
    queue.run();
    const TimeNs t0 = comm.record(0).duration();
    const TimeNs t1 = comm.record(1).duration();
    EXPECT_NEAR(comm.utilization().activeTime(), std::max(t0, t1),
                1.0);
}

TEST(CommRuntime, TraceCapturesEveryOp)
{
    stats::TraceWriter trace;
    stats::telemetry::Telemetry telem;
    telem.trace = &trace;
    RuntimeConfig cfg = themisScfConfig();
    cfg.telemetry = &telem;
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(), cfg);
    comm.issue(request(CollectiveType::AllReduce, 16.0e6, 4));
    queue.run();
    // 4 chunks x 4 stages.
    EXPECT_EQ(trace.eventCount(), 16u);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("RS c0.s0"), std::string::npos);
    EXPECT_NE(json.find("AG c3.s3"), std::string::npos);
}

TEST(CommRuntime, RecordsKeepUserFacingSizes)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(),
                     themisScfConfig());
    // AG records keep the gathered-result convention the caller used.
    const int id =
        comm.issue(request(CollectiveType::AllGather, 128.0e6, 8));
    queue.run();
    EXPECT_DOUBLE_EQ(comm.record(id).size, 128.0e6);
    EXPECT_EQ(comm.record(id).scope.size(), 2u);
    EXPECT_EQ(comm.record(id).scope[0].participants, 16);
}

TEST(CommRuntime, ManySequentialCollectivesStayConsistent)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make3DSwSwSwHetero(),
                     themisScfConfig());
    CollectiveRequest req =
        request(CollectiveType::AllReduce, 4.0e6, 4);
    int completed = 0;
    std::function<void()> chain = [&] {
        ++completed;
        if (completed < 10)
            comm.issue(req, chain);
    };
    comm.issue(req, chain);
    queue.run();
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(comm.outstanding(), 0);
    // All ten back-to-back collectives fall in one active window
    // (each issue happens inside the predecessor's completion).
    EXPECT_NEAR(comm.utilization().activeTime(),
                comm.records().back().completed -
                    comm.records().front().issued,
                1.0);
}

TEST(CommRuntime, EngineAccessorBoundsChecked)
{
    sim::EventQueue queue;
    CommRuntime comm(queue, presets::make2DSwSw(),
                     themisScfConfig());
    EXPECT_DEATH(comm.engine(2), "bad dimension");
    EXPECT_DEATH(comm.record(0), "unknown collective");
}

} // namespace
} // namespace themis::runtime
