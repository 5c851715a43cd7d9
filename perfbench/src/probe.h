/**
 * @file
 * Layer probes of the traced run. Scheduler::build, WhatIfEngine::
 * evaluate and the dispatcher run only inside optimize(), and the plan
 * store, enumerator and tensor-map planner only inside the session, so
 * their cost cannot be bracketed by a span from outside. After the
 * timed part, each probe calls the module's public function directly
 * on the same graph and winning config, takes the median per-call
 * host time, and the callers attribute it through the call counts the
 * ConvergenceReport or the workload itself returns.
 */
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct ProbeTarget
{
    std::string name;
    const astra::Graph* graph = nullptr;
    const Winner* winner = nullptr;
    astra::AstraOptions opts;
    std::string store;  ///< plan store holding the winner
};

/** Median host seconds of one call, per target. */
struct PerCall
{
    double enumerate_s = 0.0;
    double tensor_map_s = 0.0;  ///< all strategies' tensor maps
    double build_s = 0.0;
    double evaluate_s = 0.0;
    double dispatch_s = 0.0;
    double lower_s = 0.0;  ///< lower_plan + verify_wired
    double replay_s = 0.0;
    double lookup_s = 0.0;
    double put_s = 0.0;
};

/**
 * Probe every target and fill the per-layer metrics of the scheduler,
 * what-if, search-space, tensor-map, plan-store, dispatcher and wired
 * layers (per-call times are means over targets).
 */
std::vector<PerCall> probe_layers(Run& run,
                                  const std::vector<ProbeTarget>& targets);

}  // namespace perfbench
