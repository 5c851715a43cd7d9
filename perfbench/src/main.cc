/**
 * @file
 * astra_perfbench: the repository benchmark.
 *
 *   astra_perfbench --workload wire_cold|train_warm|serve_fleet
 *                   --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Prints a text table of every metric (name, value, unit, direction,
 * samples), then, as the last line of stdout, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, timed with tracing off; with
 * --trace 1 they are the per-layer ones, and the spans plus the layer
 * table are also written as JSON to DIR/trace-<workload>-<seed>.json.
 * Plan stores live in a private directory under DIR, removed at exit.
 * Exits 1 when any correctness check fails.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.h"
#include "core/config_io.h"
#include "obs/obs.h"
#include "runtime/dispatcher.h"

namespace perfbench {

bool
Checks::check(bool ok, const std::string& what)
{
    if (!ok) {
        ++broken_;
        ++failed_;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
    return ok;
}

std::filesystem::path
Run::fresh_dir(const std::string& name)
{
    static int serial = 0;
    const std::filesystem::path dir =
        work_dir / (name + "-" + std::to_string(serial++));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

uint64_t
config_fnv(const astra::ScheduleConfig& config)
{
    return astra::fnv1a64(astra::config_to_string(config));
}

astra::AstraOptions
pinned_options(const std::string& plan_store)
{
    astra::AstraOptions opts;
    opts.gpu.execute_kernels = false;  // timing-only device
    opts.gpu.autoboost = false;
    opts.gpu.faults = astra::FaultPlan();
    opts.gpu.collect_trace = false;
    opts.sched.super_epoch_ns = 400000.0;
    opts.plan_store = plan_store;
    return opts;
}

bool
same_result(const astra::DispatchResult& a, const astra::DispatchResult& b)
{
    return a.total_ns == b.total_ns && a.profile_ns == b.profile_ns;
}

namespace {

/** Direction of every metric ("lower" is better unless listed). */
const char*
direction(const std::string& name)
{
    static const char* const higher[] = {
        "plan_speedup", "goodput_rps", "serve_max_rps", "drain_krps",
        "scheduler.plan_cache_hit_rate", "plan_store.l1_hit_frac",
        "whatif.predictor_pruned", "whatif.evals_per_measured",
        "serve.batch_occupancy", "trace.coverage_frac"};
    for (const char* h : higher)
        if (name == h)
            return "higher";
    return "lower";
}

std::string
number(double v)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

void
print_table(const std::string& title, const Metrics& m)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("  %-32s %18s  %-7s %-7s %s\n", "metric", "value", "unit",
                "better", "samples");
    for (const auto& [name, metric] : m)
        std::printf("  %-32s %18.6g  %-7s %-7s %lld\n", name.c_str(),
                    metric.value, metric.unit.c_str(),
                    direction(name), static_cast<long long>(metric.samples));
}

std::string
metrics_json(const Metrics& m)
{
    std::string out = "{";
    for (const auto& [name, metric] : m) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out + "}";
}

/**
 * The end-to-end metrics that cost one unit of the workload's timed
 * work. The timed parts run for a set time, not a set amount of work,
 * so tracing overhead shows in these and not in the wall time.
 */
std::vector<std::string>
unit_costs(const std::string& workload)
{
    if (workload == "wire_cold")
        return {"wire_s"};
    if (workload == "train_warm")
        return {"restart_s", "step_ms_p50", "wired_step_ms_p50"};
    return {"drain_krps"};
}

/** The untraced run's unit costs, kept for traced runs of its seed. */
std::filesystem::path
basis_path(const std::filesystem::path& out, const Run& run)
{
    return out / ("untraced-" + run.workload + "-" +
                  std::to_string(run.seed) + ".txt");
}

void
write_basis(const std::filesystem::path& out, const Run& run)
{
    for (const std::string& name : unit_costs(run.workload))
        if (!run.e2e.count(name))
            return;  // the workload stopped early
    std::ofstream os(basis_path(out, run));
    os << "seconds " << number(run.seconds) << "\n";
    for (const std::string& name : unit_costs(run.workload))
        os << name << " " << number(run.e2e.at(name).value) << "\n";
}

/**
 * Geometric mean over the unit costs of traced / untraced cost, minus
 * one. 0 when no untraced run of the same seed and --seconds left a
 * basis in the checkout.
 */
double
tracing_overhead(const std::filesystem::path& out, const Run& run)
{
    std::ifstream is(basis_path(out, run));
    std::string key;
    double seconds = 0.0;
    if (!(is >> key >> seconds) || key != "seconds" ||
        seconds != run.seconds) {
        std::fprintf(stderr,
                     "trace.overhead_frac: no untraced run of seed %llu "
                     "at --seconds %g to compare with; reported as 0\n",
                     static_cast<unsigned long long>(run.seed),
                     run.seconds);
        return 0.0;
    }
    std::map<std::string, double> basis;
    double value = 0.0;
    while (is >> key >> value)
        basis[key] = value;
    double log_sum = 0.0;
    const std::vector<std::string> names = unit_costs(run.workload);
    for (const std::string& name : names) {
        if (!run.e2e.count(name) || !(basis[name] > 0.0))
            return 0.0;
        const double ratio = run.e2e.at(name).value / basis[name];
        // drain_krps is a rate: its cost per request is the inverse.
        log_sum += std::log(std::string(direction(name)) == "higher"
                                ? 1.0 / ratio
                                : ratio);
    }
    return std::exp(log_sum / static_cast<double>(names.size())) - 1.0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: astra_perfbench --workload "
                 "wire_cold|train_warm|serve_fleet --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Run run;
    std::filesystem::path out = ".bench_build/perfbench-out";
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        if (flag == "--workload") {
            run.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            run.seed = std::stoull(val);
        } else if (flag == "--seconds") {
            run.seconds = std::stod(val);
        } else if (flag == "--trace") {
            run.trace = val == "1";
        } else if (flag == "--out") {
            out = val;
        } else {
            usage();
            return 2;
        }
    }
    void (*workload)(Run&) = nullptr;
    if (run.workload == "wire_cold")
        workload = run_wire_cold;
    else if (run.workload == "train_warm")
        workload = run_train_warm;
    else if (run.workload == "serve_fleet")
        workload = run_serve_fleet;
    if (!have_workload || workload == nullptr) {
        usage();
        return 2;
    }

    // Library tracing stays off whatever ASTRA_TRACE says; the traced
    // run uses the benchmark's own span recorder.
    astra::obs::set_enabled(false);
    run.spans.set_enabled(run.trace);
    run.work_dir = out / ("work-" + std::to_string(::getpid()));
    std::filesystem::remove_all(run.work_dir);
    std::filesystem::create_directories(run.work_dir);

    try {
        workload(run);
    } catch (const std::exception& e) {
        run.checks.check(false, std::string("exception: ") + e.what());
    }
    std::filesystem::remove_all(run.work_dir);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    run.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

    if (run.trace) {
        run.set_layer("plan_store.l1_hit_frac",
                      run.restarts ? static_cast<double>(run.l1_hits) /
                                         static_cast<double>(run.restarts)
                                   : 0.0,
                      "frac");
        run.set_layer("trace.coverage_frac",
                      run.covered_wall_s > 0.0
                          ? run.explained_s / run.covered_wall_s
                          : 0.0,
                      "frac");
        run.set_layer("trace.overhead_frac", tracing_overhead(out, run),
                      "frac");

        const std::filesystem::path json =
            out / ("trace-" + run.workload + "-" +
                   std::to_string(run.seed) + ".json");
        std::ofstream os(json);
        os << "{\"workload\": \"" << run.workload << "\", \"seed\": "
           << run.seed << ",\n \"layers\": " << metrics_json(run.layer)
           << ",\n \"self_s\": {";
        bool first = true;
        for (const auto& [name, s] : run.spans.self_seconds()) {
            os << (first ? "" : ", ") << "\"" << name << "\": " << number(s);
            first = false;
        }
        os << "},\n \"spans\": ";
        run.spans.write_json(os);
        os << "}\n";
        std::printf("spans and layer table written to %s\n",
                    json.string().c_str());
    } else {
        write_basis(out, run);
    }

    const double failed_frac =
        run.checks.attempted()
            ? static_cast<double>(run.checks.failed()) /
                  static_cast<double>(run.checks.attempted())
            : 0.0;
    print_table(run.workload + " end-to-end (seed " +
                    std::to_string(run.seed) + ")",
                run.e2e);
    std::printf("  %-32s %18.6g  %-7s %-7s %lld\n", "failed_frac",
                failed_frac, "frac", "lower",
                static_cast<long long>(run.checks.attempted()));
    if (run.trace) {
        print_table(run.workload + " per-layer (traced run)", run.layer);
        std::printf("  trace.coverage_frac %.3f of %.3f s; wire_s %.3f s\n",
                    run.layer["trace.coverage_frac"].value,
                    run.covered_wall_s, run.e2e["wire_s"].value);
    }

    const bool correct = run.checks.broken() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(run.checks.attempted()),
                static_cast<long long>(run.checks.failed()),
                metrics_json(run.trace ? run.layer : run.e2e).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
