/**
 * @file
 * Shared state of one benchmark run: the workload arguments, the
 * correctness-check tally, the metric tables and the span recorder.
 *
 * Every layer is timed from outside, around calls into the library's
 * public functions; nothing here reaches into src/ internals.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "calib.h"
#include "core/astra.h"
#include "spans.h"

namespace perfbench {

/** One reported number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;  ///< measurements behind the value
};

using Metrics = std::map<std::string, Metric>;

/** Tally of correctness checks; every failure is printed to stderr. */
class Checks
{
  public:
    /** Count one check; returns `ok`. */
    bool check(bool ok, const std::string& what);

    /** Add `n` attempted units of work that cannot fail by themselves. */
    void attempt(int64_t n) { attempted_ += n; }

    /** Count `n` failed units (shed/evicted/failed requests). */
    void fail(int64_t n, int64_t attempted)
    {
        attempted_ += attempted;
        failed_ += n;
    }

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    /** Hard check failures (exit status), as opposed to shed requests. */
    int64_t broken() const { return broken_; }

  private:
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    int64_t broken_ = 0;
};

/** Everything one invocation measures. */
struct Run
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;

    /** Private scratch directory for plan stores (removed at exit). */
    std::filesystem::path work_dir;

    SpanRecorder spans;
    SpeedTrack speed;
    Checks checks;

    Metrics e2e;    ///< end-to-end metrics (untraced run)
    Metrics layer;  ///< per-layer metrics (traced run)

    /** Model restarts from the plan store, and how many hit L1. */
    int64_t restarts = 0;
    int64_t l1_hits = 0;

    /** Host seconds of the phase trace.coverage_frac explains. */
    double covered_wall_s = 0.0;

    /** Layer seconds (measured or attributed) inside that phase. */
    double explained_s = 0.0;

    void set(const std::string& name, double value,
             const std::string& unit, int64_t samples = 1)
    {
        e2e[name] = {value, unit, samples};
    }
    void set_layer(const std::string& name, double value,
                   const std::string& unit)
    {
        layer[name] = {value, unit};
    }

    /** A fresh, empty directory under work_dir. */
    std::filesystem::path fresh_dir(const std::string& name);
};

/** A converged, lowered and verified winner of one model. */
struct Winner
{
    std::string name;
    astra::ScheduleConfig config;
    uint64_t fnv = 0;
    double sim_ns = 0.0;     ///< simulated mini-batch of the winner
    double native_ns = 0.0;  ///< simulated native-framework mini-batch
    int64_t minibatches = 0;
    astra::ConvergenceReport convergence;
    int64_t cmds = 0;  ///< wired command-stream length
};

/** Nearest-rank percentile, p in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** FNV-1a of a configuration's canonical text. */
uint64_t config_fnv(const astra::ScheduleConfig& config);

/**
 * Session options every workload shares: timing-only device with
 * autoboost and faults pinned off, explicit plan-store path, the
 * paper benches' super-epoch target. Every field an ASTRA_* variable
 * would set is overridden.
 */
astra::AstraOptions pinned_options(const std::string& plan_store);

/**
 * Bit-identity of the compiled replay against the generic dispatcher
 * (total_ns and every profile_ns entry).
 */
bool same_result(const astra::DispatchResult& a,
                 const astra::DispatchResult& b);

// ---- the three workloads -------------------------------------------------

void run_wire_cold(Run& run);
void run_train_warm(Run& run);
void run_serve_fleet(Run& run);

}  // namespace perfbench
