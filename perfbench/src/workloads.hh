/**
 * @file
 * The three benchmark workloads (see perfbench/README.md for why each
 * exists). Each runs untraced, repeating its timed work until the time
 * budget is spent and reporting medians, or traced, replaying the
 * program outside in and reporting per-layer spans.
 */

#pragma once

#include <string>

#include "common.hh"

namespace perfbench
{

/** Parallel lanes of the global pool for every workload. */
constexpr int kLanes = 2;

Outcome runLongRun(const Options &options);
Outcome runFleet(const Options &options);
Outcome runTrain(const Options &options);

/**
 * Train the ML05 model fixture (small-scale recipe, full Table III
 * training set, seed 2023) and write its bundle to `path`.
 * Returns a process exit code.
 */
int makeModelFixture(const std::string &path);

} // namespace perfbench
