/**
 * @file
 * The benchmark's three workloads. Each runs from one process, sets up
 * several times and reports the median, runs untraced for the
 * end-to-end metrics, and with --trace 1 runs again traced for the
 * per-layer ones. Each checks its own outputs.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "harness.hpp"

namespace perfbench {

/** Closed-loop single-collective what-if queries over a result store. */
Outcome runWhatIf(const Args& args);

/** The paper's Fig 12 grid on two sweep workers. */
Outcome runFig12(const Args& args);

/** 1000-iteration converged runs, a fault run and a cluster mix. */
Outcome runLongRun(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
