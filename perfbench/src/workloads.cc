/**
 * @file
 * The three workloads. Each one reports every end-to-end metric, but
 * spends its timed part on a different layer:
 *
 *  wire_cold    cold exploration of the five paper models (1 wirer
 *               thread, what-if armed) — scheduler build and what-if
 *               replay dominate;
 *  train_warm   repeated warm L1 restarts of the zoo, then steady-state
 *               rounds through the generic and the compiled dispatch
 *               paths — exploration is bypassed;
 *  serve_fleet  draining a ~1e6-request open-loop trace through a
 *               two-replica fleet — the serve loop and replay_wired
 *               dominate.
 *
 * The zoo workloads serve a small fleet trace afterwards and the fleet
 * workload wires, restarts and steps its bucket models, so that the
 * phases outside a workload's focus are measured on the workload's own
 * models at a small, fixed size.
 */

#include "fleet.h"
#include "probe.h"
#include "zoo.h"

namespace perfbench {

using namespace astra;

namespace {

/**
 * Set-ups per run. A zoo set-up takes ~6 ms, and the median of 3 still
 * spread by up to ~20% across runs.
 */
constexpr int kSetupReps = 9;
/** Rounds at least, so step_ms_p99 has a few samples beyond it. */
constexpr int kMinRounds = 300;

/**
 * wire_cold's rounds: the p50 of a 300-round window (~4 s) still moved
 * by ~17% between sets of runs; 800 rounds average over more of the
 * machine's speed changes.
 */
constexpr int kColdRounds = 800;

/** Run `fn` kSetupReps times as set-up; setup_s is the median. */
template <typename Fn>
auto
timed_setup(Run& run, Fn&& fn)
{
    std::vector<double> t;
    decltype(fn()) out;
    for (int i = 0; i < kSetupReps; ++i) {
        auto phase = run.spans.scope("phase.setup");
        t.push_back(run.speed.seconds([&] { out = fn(); }));
    }
    run.set("setup_s", median(t), "s", kSetupReps);
    return out;
}

std::vector<ProbeTarget>
zoo_targets(const std::vector<ZooModel>& zoo,
            const std::vector<Winner>& winners, const std::string& store)
{
    std::vector<ProbeTarget> out;
    for (size_t i = 0; i < zoo.size(); ++i) {
        ProbeTarget t;
        t.name = zoo[i].name;
        t.graph = &zoo[i].model.graph();
        t.winner = &winners[i];
        t.opts = zoo_options("", 1, false);
        t.store = model_store(store, zoo[i].name);
        out.push_back(std::move(t));
    }
    return out;
}

/** A small fleet trace served after a zoo workload's timed part. */
void
companion_serve(Run& run)
{
    Fleet f = setup_fleet(run, run.fresh_dir("companion").string(),
                          100000, run.seed);
    auto phase = run.spans.scope("phase.serve");
    ServeScale scale;
    scale.nominal_requests = 100000;
    scale.ladder_requests = 30000;
    scale.min_drains = 3;
    serve_phase(run, f, scale);
}

/**
 * wirer.optimize_ms from the `optimize_span` spans under the focus
 * phases (one span wires `models_per_span` models), and
 * astra.session_init_ms.
 */
void
span_layers(Run& run, const std::string& optimize_span,
            const std::vector<std::string>& focus, int models_per_span,
            const std::vector<ProbeTarget>& targets)
{
    run.set_layer("wirer.optimize_ms",
                  run.spans.tally(optimize_span, focus).mean_s() *
                      run.speed.median_factor() * 1e3 / models_per_span,
                  "ms");
    // The session constructor is called directly only by the zoo
    // workloads; the probe times it on every target so the metric is
    // comparable across workloads.
    std::vector<double> init;
    for (const ProbeTarget& t : targets) {
        AstraOptions opts = t.opts;
        opts.plan_store.clear();
        init.push_back(
            run.speed.seconds([&] { AstraSession s(*t.graph, opts); }));
    }
    double mean = 0.0;
    for (double x : init)
        mean += x / static_cast<double>(init.size());
    run.set_layer("astra.session_init_ms", mean * 1e3, "ms");
}

}  // namespace

void
run_wire_cold(Run& run)
{
    const std::vector<ZooModel> zoo =
        timed_setup(run, [&] { return build_zoo(run.seed); });

    // Timed: cold wiring, repeated while another zoo fits in --seconds.
    std::vector<double> wire_s;
    ZooWiring wiring;
    std::string store;
    const double start = now_s();
    do {
        store = run.fresh_dir("wire").string();
        auto phase = run.spans.scope("phase.wire");
        wiring = wire_zoo(run, zoo, store, 1);
        wire_s.push_back(wiring.wall_s);
    } while (now_s() - start + wiring.wall_s < run.seconds);

    Sessions sessions;
    std::vector<double> restart_s;
    {
        auto phase = run.spans.scope("phase.restart");
        for (int i = 0; i < 5; ++i)
            restart_s.push_back(
                restart_zoo(run, zoo, store, wiring.winners, &sessions));
    }
    Rounds rounds;
    {
        auto phase = run.spans.scope("phase.steps");
        rounds = step_rounds(run, zoo, wiring.winners, sessions, 0.0,
                             kColdRounds);
    }
    report_models(run, wire_s, wiring.winners, restart_s, rounds);
    companion_serve(run);

    if (!run.trace)
        return;
    const std::vector<ProbeTarget> targets =
        zoo_targets(zoo, wiring.winners, store);
    const std::vector<PerCall> pc = probe_layers(run, targets);
    span_layers(run, "wirer.optimize", {"phase.wire"}, 1, targets);
    // Coverage of the last wiring: session init (spanned), then plan
    // builds, what-if replays and measured mini-batches, attributed
    // through the reports' counts.
    run.covered_wall_s = wiring.wall_s;
    run.explained_s = run.spans.tally("astra.session_init", {"phase.wire"})
                          .total_s *
                      run.speed.median_factor() /
                      static_cast<double>(wire_s.size());
    for (size_t i = 0; i < pc.size(); ++i) {
        const ConvergenceReport& c = wiring.winners[i].convergence;
        run.explained_s +=
            pc[i].build_s * static_cast<double>(c.plan_cache_misses) +
            pc[i].evaluate_s * static_cast<double>(c.whatif_evals) +
            pc[i].dispatch_s *
                static_cast<double>(wiring.winners[i].minibatches);
    }
}

void
run_train_warm(Run& run)
{
    const std::vector<ZooModel> zoo =
        timed_setup(run, [&] { return build_zoo(run.seed); });

    // Fill the store; four wirer threads give bit-identical winners.
    const std::string store = run.fresh_dir("store").string();
    ZooWiring wiring;
    {
        auto phase = run.spans.scope("phase.wire");
        wiring = wire_zoo(run, zoo, store, 4);
    }

    // Timed: restarts for ~40% of --seconds, then steady-state rounds.
    Sessions sessions;
    std::vector<double> restart_s;
    const double start = now_s();
    {
        auto phase = run.spans.scope("phase.restart");
        while (restart_s.size() < 3 ||
               now_s() - start < 0.4 * run.seconds)
            restart_s.push_back(
                restart_zoo(run, zoo, store, wiring.winners, &sessions));
    }
    Rounds rounds;
    {
        auto phase = run.spans.scope("phase.steps");
        rounds = step_rounds(run, zoo, wiring.winners, sessions,
                             run.seconds - (now_s() - start), kMinRounds);
    }
    const double timed_wall_s = now_s() - start;
    report_models(run, {wiring.wall_s}, wiring.winners, restart_s, rounds);
    companion_serve(run);

    if (!run.trace)
        return;
    const std::vector<ProbeTarget> targets =
        zoo_targets(zoo, wiring.winners, store);
    const std::vector<PerCall> pc = probe_layers(run, targets);
    span_layers(run, "wirer.optimize", {"phase.restart"}, 1, targets);
    // A restart is session init (spanned), then lookup, plan build,
    // the verification dispatch and a lowering per model; a round is
    // one dispatch or one replay per model.
    const double factor = run.speed.median_factor();
    run.covered_wall_s = timed_wall_s * factor;
    run.explained_s =
        run.spans.tally("astra.session_init", {"phase.restart"}).total_s *
        factor;
    const double restarts = static_cast<double>(restart_s.size());
    for (const PerCall& p : pc)
        run.explained_s +=
            restarts * (p.lookup_s + p.build_s + p.dispatch_s + p.lower_s) +
            static_cast<double>(rounds.generic_ms.size()) * p.dispatch_s +
            static_cast<double>(rounds.wired_ms.size()) * p.replay_s;
}

void
run_serve_fleet(Run& run)
{
    // Set-up: cold-wire and lower the fleet, generate the ~1e6-request
    // trace. Each repetition wires into a fresh store.
    std::vector<double> wire_s;
    Fleet f = timed_setup(run, [&] {
        Fleet fresh = setup_fleet(run, run.fresh_dir("fleet").string(),
                                  1000000, run.seed);
        wire_s.push_back(fresh.wire_s);
        return fresh;
    });
    const std::vector<Winner> winners = fleet_winners(run, f);
    // A cold fleet wiring takes ~15 ms: repeat it for a steady median.
    while (wire_s.size() < 40)
        wire_s.push_back(
            setup_fleet(run, run.fresh_dir("fleet").string(), 1, run.seed)
                .wire_s);

    std::vector<double> restart_s;
    {
        auto phase = run.spans.scope("phase.restart");
        for (int i = 0; i < 15; ++i)
            restart_s.push_back(restart_fleet(run, f.store, winners));
    }
    Rounds rounds;
    {
        auto phase = run.spans.scope("phase.steps");
        rounds = fleet_rounds(run, f, winners, 0.0, 3000);
    }
    report_models(run, wire_s, winners, restart_s, rounds);

    // Timed: drain the nominal trace for --seconds, then the ladder.
    ServeTiming timing;
    {
        auto phase = run.spans.scope("phase.serve");
        ServeScale scale;
        scale.nominal_requests = 1000000;
        scale.ladder_requests = 100000;
        scale.drain_seconds = run.seconds;
        scale.min_drains = 2;
        timing = serve_phase(run, f, scale);
    }

    if (!run.trace)
        return;
    const std::vector<ProbeTarget> targets = fleet_targets(f, winners);
    probe_layers(run, targets);
    span_layers(run, "serve.fleet_optimize", {"phase.setup"},
                static_cast<int>(targets.size()), targets);
    run.covered_wall_s = timing.drain_s;
    run.explained_s = timing.replay_s;
}

}  // namespace perfbench
