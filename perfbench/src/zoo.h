/**
 * @file
 * The five paper models (scrnn, stacked, milstm, sublstm, gnmt at the
 * micro_whatif --smoke shapes) and the pipeline phases the wire_cold
 * and train_warm workloads run over them: cold wiring into a plan
 * store, warm L1 restarts, and steady-state mini-batch rounds.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "models/models.h"

namespace perfbench {

struct ZooModel
{
    std::string name;
    astra::BuiltModel model;
};

/** Session options of the zoo: all features, what-if armed. */
astra::AstraOptions zoo_options(const std::string& store, int threads,
                                bool compiled);

/**
 * Each model's private plan store under `store`: every model starts
 * cold, with no other model's library priors.
 */
std::string model_store(const std::string& store, const std::string& name);

/** Build the zoo graphs; the seed fixes the order models are visited. */
std::vector<ZooModel> build_zoo(uint64_t seed);

/** Outcome of one cold wiring of the zoo. */
struct ZooWiring
{
    double wall_s = 0.0;  ///< session init + optimize, summed
    std::vector<Winner> winners;
};

/**
 * Cold-wire every model into its own store under `store`: what-if
 * armed, `threads` wirer threads. Checks termination, the cold tier,
 * and that each lowered winner replays bit-identically to dispatch.
 */
ZooWiring wire_zoo(Run& run, const std::vector<ZooModel>& zoo,
                   const std::string& store, int threads);

/** Sessions of one restart, kept for the steady-state rounds. */
using Sessions = std::vector<std::unique_ptr<astra::AstraSession>>;

/**
 * One warm restart of the zoo: per model a fresh session, an L1 lookup
 * with its verification mini-batch (optimize), and a lowering. Checks
 * that every model answers from L1 with the cold winner's config.
 * Returns host seconds; the compiled-dispatch sessions go to `out`.
 */
double restart_zoo(Run& run, const std::vector<ZooModel>& zoo,
                   const std::string& store,
                   const std::vector<Winner>& winners, Sessions* out);

/** Host ms per zoo round, generic and compiled. */
struct Rounds
{
    std::vector<double> generic_ms;
    std::vector<double> wired_ms;
};

/**
 * Alternate generic and compiled rounds (one mini-batch of every model
 * each) until `seconds` elapse, at least `min_rounds` of each. Checks
 * every result against the winner's simulated time.
 */
Rounds step_rounds(Run& run, const std::vector<ZooModel>& zoo,
                   const std::vector<Winner>& winners,
                   const Sessions& compiled, double seconds,
                   int min_rounds);

/**
 * Alternate one generic and one compiled round (each returns whether
 * its results matched the winners) after a warm-up pair, until
 * `seconds` elapse and at least `min_rounds` of each ran. Every round
 * is timed next to one reference-kernel run and reported at reference
 * speed. Counts `per_round` attempted steps per round.
 */
Rounds run_rounds(Run& run, double seconds, int min_rounds,
                  int64_t per_round, const std::function<bool()>& generic,
                  const std::function<bool()>& compiled);

/**
 * Set wire_s, wire_minibatches, plan_speedup, restart_s and the
 * step_ms_* metrics from a model set's phases.
 */
void report_models(Run& run, const std::vector<double>& wire_s,
                const std::vector<Winner>& winners,
                const std::vector<double>& restart_s,
                const Rounds& rounds);

}  // namespace perfbench
