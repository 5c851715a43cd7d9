/**
 * @file
 * The serving side: a two-replica ReplicaFleet over scrnn buckets
 * {4, 6, 8} (as in micro_serving_chaos) behind a bounded EDF-shed
 * queue, open-loop Poisson traffic with one 2x diurnal burst, and the
 * phases the workloads run over it: cold wiring, warm restart,
 * steady-state rounds over the bucket plans, draining a pre-generated
 * trace as fast as the host allows, and a rate ladder for
 * serve_max_rps.
 */
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "serve/router.h"
#include "probe.h"
#include "zoo.h"

namespace perfbench {

/** One wired fleet and its nominal trace. */
struct Fleet
{
    std::unique_ptr<astra::serve::ReplicaFleet> fleet;
    std::string store;         ///< the plan store it was wired into
    double wire_s = 0.0;       ///< host seconds of the cold optimize()
    int64_t minibatches = 0;   ///< exploration mini-batches
    double batch_ns = 0.0;     ///< largest bucket's wired batch time
    double capacity_rps = 0.0; ///< replicas x batch / batch time
    std::vector<astra::serve::ServeRequest> traffic;  ///< nominal trace
    double traffic_gen_s = 0.0;
};

/** How much serving one workload does. */
struct ServeScale
{
    int64_t nominal_requests = 0;
    int64_t ladder_requests = 0;
    double drain_seconds = 0.0;  ///< keep draining the nominal trace
    int min_drains = 1;
};

/**
 * Cold-wire a fleet into `store` (empty) and generate its nominal
 * trace from the run's seed.
 */
Fleet setup_fleet(Run& run, const std::string& store,
                  int64_t nominal_requests, uint64_t seed);

/**
 * Per bucket: termination, lowered-blob verification and bit-identity
 * of replay_wired against dispatch_plan; prints each config FNV.
 */
std::vector<Winner> fleet_winners(Run& run, const Fleet& f);

/**
 * Restart the fleet from the warm store; checks every bucket answers
 * from L1 with its cold winner's config. Returns host seconds.
 */
double restart_fleet(Run& run, const std::string& store,
                     const std::vector<Winner>& winners);

/** Generic and compiled rounds over the bucket plans. */
Rounds fleet_rounds(Run& run, const Fleet& f,
                    const std::vector<Winner>& winners, double seconds,
                    int min_rounds);

/**
 * Drain the nominal trace, then run the rate ladder. Sets serve_p50_ms,
 * serve_p99_ms, goodput_rps, serve_max_rps and drain_krps, plus the
 * serve.* layer metrics in a traced run; every drain must pass the
 * exactly-once audit.
 */
struct ServeTiming
{
    double drain_s = 0.0;   ///< median host seconds of one drain
    double replay_s = 0.0;  ///< of which batch replays (traced run)
};
ServeTiming serve_phase(Run& run, Fleet& f, const ServeScale& scale);

/** Probe targets for the fleet's bucket sessions. */
std::vector<ProbeTarget> fleet_targets(const Fleet& f,
                                       const std::vector<Winner>& w);

}  // namespace perfbench
