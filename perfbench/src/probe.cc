#include "probe.h"

#include <filesystem>
#include <set>

#include "core/plan_store.h"
#include "core/whatif.h"
#include "runtime/dispatcher.h"
#include "runtime/wired.h"

namespace perfbench {

using namespace astra;

namespace {

constexpr int kReps = 3;

template <typename Fn>
double
time_median(Fn&& fn)
{
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i) {
        const double t0 = now_s();
        fn();
        t.push_back(now_s() - t0);
    }
    return median(std::move(t));
}

}  // namespace

std::vector<PerCall>
probe_layers(Run& run, const std::vector<ProbeTarget>& targets)
{
    auto phase = run.spans.scope("phase.probe");
    const std::string put_dir = run.fresh_dir("probe-put").string();

    std::vector<PerCall> out;
    PerCall mean;
    int64_t misses = 0, hits = 0, evals = 0, pruned = 0, measured = 0;
    int64_t cmds = 0, steps = 0;
    std::uintmax_t store_bytes = 0;
    std::set<std::string> stores;  // fleet buckets share one store
    for (const ProbeTarget& t : targets) {
        auto span = run.spans.scope("probe", t.name);
        const double before = run.speed.read();
        const Graph& graph = *t.graph;
        const ScheduleConfig& config = t.winner->config;
        const GpuConfig& gpu = t.opts.gpu;
        PerCall pc;

        SearchSpace space;
        pc.enumerate_s = time_median([&] {
            space = enumerate_search_space(graph, t.opts.enumerator);
        });
        const int64_t bytes = graph_tensor_bytes(graph) + (1 << 20);
        pc.tensor_map_s = time_median([&] {
            for (const AllocStrategy& st : space.strategies) {
                SimMemory mem(bytes, gpu.execute_kernels);
                TensorMap tmap(graph, mem, st.runs, MemoryPlanMode::Bump);
            }
        });

        const Scheduler sched(graph, space, t.opts.sched);
        SimMemory mem(bytes, gpu.execute_kernels);
        const TensorMap tmap(
            graph, mem,
            space.strategies[static_cast<size_t>(config.strategy)].runs,
            MemoryPlanMode::Bump);
        pc.build_s = time_median([&] { sched.build(config); });
        const WhatIfEngine engine(graph, tmap, sched, gpu);
        pc.evaluate_s = time_median([&] { engine.evaluate(config); });
        const ExecutionPlan plan = sched.build(config);
        pc.dispatch_s =
            time_median([&] { dispatch_plan(plan, graph, tmap, gpu); });
        WiredBinary bin;
        pc.lower_s = time_median([&] {
            bin = lower_plan(plan, graph, tmap, gpu);
            verify_wired(bin);
        });
        pc.replay_s = time_median([&] { replay_wired(bin, gpu); });

        const PlanStore plan_store(t.store);
        const PlanStoreKey key = make_plan_store_key(graph, gpu);
        StoreLookup hit;
        pc.lookup_s = time_median([&] { hit = plan_store.lookup(key); });
        run.checks.check(hit.tier == StoreTier::L1,
                         t.name + ": probe lookup missed L1");
        pc.put_s = time_median([&] { PlanStore(put_dir).put(hit.entry); });

        // Per-call times at reference speed.
        const double factor = 0.5 * (before + run.speed.read());
        for (double* x : {&pc.enumerate_s, &pc.tensor_map_s, &pc.build_s,
                          &pc.evaluate_s, &pc.dispatch_s, &pc.lower_s,
                          &pc.replay_s, &pc.lookup_s, &pc.put_s})
            *x *= factor;

        const ConvergenceReport& c = t.winner->convergence;
        misses += c.plan_cache_misses;
        hits += c.plan_cache_hits;
        evals += c.whatif_evals;
        pruned += c.predictor_pruned;
        measured += c.measured_configs;
        cmds += static_cast<int64_t>(bin.program.cmds.size());
        steps += static_cast<int64_t>(plan.steps.size());
        if (stores.insert(t.store).second)
            for (const auto& f : std::filesystem::directory_iterator(t.store))
                if (f.is_regular_file())
                    store_bytes += f.file_size();

        const double n = static_cast<double>(targets.size());
        mean.enumerate_s += pc.enumerate_s / n;
        mean.tensor_map_s += pc.tensor_map_s / n;
        mean.build_s += pc.build_s / n;
        mean.evaluate_s += pc.evaluate_s / n;
        mean.dispatch_s += pc.dispatch_s / n;
        mean.lower_s += pc.lower_s / n;
        mean.replay_s += pc.replay_s / n;
        mean.lookup_s += pc.lookup_s / n;
        mean.put_s += pc.put_s / n;
        out.push_back(pc);
    }

    const auto ratio = [](int64_t a, int64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    run.set_layer("scheduler.build_calls", static_cast<double>(misses),
                  "count");
    run.set_layer("scheduler.build_us", mean.build_s * 1e6, "us");
    run.set_layer("scheduler.plan_cache_hit_rate", ratio(hits, hits + misses),
                  "frac");
    run.set_layer("whatif.evals", static_cast<double>(evals), "count");
    run.set_layer("whatif.evaluate_us", mean.evaluate_s * 1e6, "us");
    run.set_layer("whatif.predictor_pruned", static_cast<double>(pruned),
                  "count");
    run.set_layer("whatif.evals_per_measured", ratio(evals, measured),
                  "ratio");
    run.set_layer("search_space.enumerate_ms", mean.enumerate_s * 1e3, "ms");
    run.set_layer("tensor_map.plan_ms", mean.tensor_map_s * 1e3, "ms");
    run.set_layer("plan_store.lookup_ms", mean.lookup_s * 1e3, "ms");
    run.set_layer("plan_store.put_ms", mean.put_s * 1e3, "ms");
    run.set_layer("wired.lower_ms", mean.lower_s * 1e3, "ms");
    run.set_layer("wired.cmds_per_step", ratio(cmds, steps), "ratio");
    run.set_layer("dispatcher.dispatch_plan_us", mean.dispatch_s * 1e6, "us");
    run.set_layer("wired.replay_us", mean.replay_s * 1e6, "us");

    run.set_layer("plan_store.bytes", static_cast<double>(store_bytes),
                  "bytes");
    return out;
}

}  // namespace perfbench
