#include "zoo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <random>

#include "core/plan_store.h"
#include "runtime/dispatcher.h"
#include "runtime/wired.h"

namespace perfbench {

using namespace astra;

namespace {

/** micro_whatif --smoke shapes of the paper configuration. */
ModelConfig
smoke_config(ModelKind kind)
{
    ModelConfig cfg;
    cfg.batch = 8;
    cfg.seq_len = 10;
    cfg.hidden = 128;
    cfg.embed_dim = 128;
    cfg.vocab = 500;
    if (kind == ModelKind::StackedLstm)
        cfg.layers = 2;
    if (kind == ModelKind::Gnmt)
        cfg.seq_len = 6;
    return cfg;
}

}  // namespace

AstraOptions
zoo_options(const std::string& store, int threads, bool compiled)
{
    AstraOptions opts = pinned_options(store);
    opts.features = features_all();
    opts.whatif.enabled = true;
    opts.wirer_threads = threads;
    opts.compiled_dispatch = compiled;
    return opts;
}

std::string
model_store(const std::string& store, const std::string& name)
{
    return (std::filesystem::path(store) / name).string();
}

std::vector<ZooModel>
build_zoo(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<ModelKind> kinds = {ModelKind::Scrnn,
                                    ModelKind::StackedLstm,
                                    ModelKind::MiLstm, ModelKind::SubLstm,
                                    ModelKind::Gnmt};
    std::shuffle(kinds.begin(), kinds.end(), rng);
    std::vector<ZooModel> zoo;
    for (ModelKind kind : kinds) {
        ZooModel m;
        m.model = build_model(kind, smoke_config(kind));
        m.name = m.model.name;
        zoo.push_back(std::move(m));
    }
    return zoo;
}

ZooWiring
wire_zoo(Run& run, const std::vector<ZooModel>& zoo,
         const std::string& store, int threads)
{
    ZooWiring out;
    for (const ZooModel& m : zoo) {
        const Graph& graph = m.model.graph();
        const AstraOptions opts =
            zoo_options(model_store(store, m.name), threads, false);
        std::unique_ptr<AstraSession> s;
        WirerResult r;
        out.wall_s += run.speed.seconds([&] {
            {
                auto init = run.spans.scope("astra.session_init", m.name);
                s = std::make_unique<AstraSession>(graph, opts);
            }
            auto span = run.spans.scope("wirer.optimize", m.name);
            r = s->optimize();
        });
        run.checks.attempt(1);

        Winner w;
        w.name = m.name;
        w.config = r.best_config;
        w.fnv = config_fnv(r.best_config);
        w.minibatches = r.minibatches;
        w.convergence = r.convergence;
        run.checks.check(r.termination == WirerTermination::Complete,
                         m.name + ": wirer termination is " +
                             wirer_termination_name(r.termination));
        run.checks.check(r.convergence.store_tier == "miss",
                         m.name + ": cold wiring answered from store tier " +
                             r.convergence.store_tier);

        // Lower the winner, then hold the compiled replay to the
        // generic dispatcher bit for bit.
        const TensorMap& tmap = s->tensor_map(w.config.strategy);
        std::shared_ptr<const WiredBinary> bin;
        {
            auto span = run.spans.scope("wired.lower", m.name);
            bin = s->scheduler().wire_cached(w.config, tmap, opts.gpu);
        }
        w.cmds = static_cast<int64_t>(bin->program.cmds.size());
        run.checks.check(verify_wired(*bin).ok,
                         m.name + ": wired binary failed verification");
        DispatchResult generic;
        {
            auto span = run.spans.scope("dispatcher.dispatch_plan", m.name);
            generic = dispatch_plan(*s->scheduler().build_cached(w.config),
                                    graph, tmap, opts.gpu);
        }
        DispatchResult wired;
        {
            auto span = run.spans.scope("wired.replay", m.name);
            wired = replay_wired(*bin, opts.gpu);
        }
        run.checks.check(same_result(generic, wired),
                         m.name + ": replay_wired differs from dispatch_plan");
        w.sim_ns = generic.total_ns;
        w.native_ns = s->run_native().total_ns;
        std::printf("winner %-10s fnv %s sim_ns %.1f native_ns %.1f "
                    "minibatches %lld\n",
                    m.name.c_str(), hash_hex(w.fnv).c_str(), w.sim_ns,
                    w.native_ns, static_cast<long long>(w.minibatches));
        out.winners.push_back(std::move(w));
    }
    return out;
}

double
restart_zoo(Run& run, const std::vector<ZooModel>& zoo,
            const std::string& store, const std::vector<Winner>& winners,
            Sessions* out)
{
    out->clear();
    double wall = 0.0;
    for (size_t i = 0; i < zoo.size(); ++i) {
        const ZooModel& m = zoo[i];
        std::unique_ptr<AstraSession> s;
        WirerResult r;
        wall += run.speed.seconds([&] {
            {
                auto init = run.spans.scope("astra.session_init", m.name);
                s = std::make_unique<AstraSession>(
                    m.model.graph(),
                    zoo_options(model_store(store, m.name), 1, true));
            }
            {
                auto span = run.spans.scope("wirer.optimize", m.name);
                r = s->optimize();
            }
            auto span = run.spans.scope("wired.lower", m.name);
            s->scheduler().wire_cached(r.best_config,
                                       s->tensor_map(r.best_config.strategy),
                                       s->options().gpu);
        });
        run.checks.attempt(1);
        ++run.restarts;
        run.l1_hits += r.convergence.store_tier == "l1";
        run.checks.check(r.convergence.store_tier == "l1",
                         m.name + ": restart answered from store tier " +
                             r.convergence.store_tier);
        run.checks.check(config_fnv(r.best_config) == winners[i].fnv,
                         m.name + ": restart config fnv " +
                             hash_hex(config_fnv(r.best_config)) +
                             " differs from cold winner " +
                             hash_hex(winners[i].fnv));
        out->push_back(std::move(s));
    }
    return wall;
}

Rounds
step_rounds(Run& run, const std::vector<ZooModel>& zoo,
            const std::vector<Winner>& winners, const Sessions& compiled,
            double seconds, int min_rounds)
{
    // The generic sessions share the store only for identity; they are
    // never optimized, just handed the winning configs.
    Sessions generic;
    for (const ZooModel& m : zoo)
        generic.push_back(std::make_unique<AstraSession>(
            m.model.graph(), zoo_options("", 1, false)));

    const auto round = [&](const Sessions& sessions,
                           const char* span_name) {
        bool ok = true;
        for (size_t i = 0; i < sessions.size(); ++i) {
            auto span = run.spans.scope(span_name, winners[i].name);
            ok &= sessions[i]->run(winners[i].config).total_ns ==
                  winners[i].sim_ns;
        }
        return ok;
    };
    return run_rounds(
        run, seconds, min_rounds, static_cast<int64_t>(zoo.size()),
        [&] { return round(generic, "dispatcher.dispatch_plan"); },
        [&] { return round(compiled, "wired.replay"); });
}

Rounds
run_rounds(Run& run, double seconds, int min_rounds, int64_t per_round,
           const std::function<bool()>& generic,
           const std::function<bool()>& compiled)
{
    std::vector<double> raw[2], kernel[2];
    const auto round = [&](int path) {
        const double t0 = now_s();
        const bool ok = path == 0 ? generic() : compiled();
        raw[path].push_back((now_s() - t0) * 1e3);
        kernel[path].push_back(calibration_seconds());
        run.checks.attempt(per_round);
        run.checks.check(ok, std::string(path == 0 ? "generic" : "compiled") +
                                 " step result differs from the winner");
    };
    // Warm-up: the generic sessions fill their plan caches here.
    round(0);
    round(1);
    for (auto& v : raw)
        v.clear();
    for (auto& v : kernel)
        v.clear();
    const double start = now_s();
    while (static_cast<int>(raw[0].size()) < min_rounds ||
           now_s() - start < seconds) {
        round(0);
        round(1);
    }
    Rounds out;
    out.generic_ms = scale_series(raw[0], kernel[0]);
    out.wired_ms = scale_series(raw[1], kernel[1]);
    return out;
}

void
report_models(Run& run, const std::vector<double>& wire_s,
           const std::vector<Winner>& winners,
           const std::vector<double>& restart_s, const Rounds& rounds)
{
    int64_t minibatches = 0;
    double log_speedup = 0.0;
    for (const Winner& w : winners) {
        minibatches += w.minibatches;
        log_speedup += std::log(w.native_ns / w.sim_ns);
    }
    const auto n = [](const std::vector<double>& v) {
        return static_cast<int64_t>(v.size());
    };
    run.set("wire_s", median(wire_s), "s", n(wire_s));
    run.set("wire_minibatches", static_cast<double>(minibatches), "count");
    run.set("plan_speedup",
            std::exp(log_speedup / static_cast<double>(winners.size())),
            "x", static_cast<int64_t>(winners.size()));
    run.set("restart_s", median(restart_s), "s", n(restart_s));
    run.set("step_ms_p50", percentile(rounds.generic_ms, 0.5), "ms",
            n(rounds.generic_ms));
    run.set("step_ms_p99", percentile(rounds.generic_ms, 0.99), "ms",
            n(rounds.generic_ms));
    run.set("wired_step_ms_p50", percentile(rounds.wired_ms, 0.5), "ms",
            n(rounds.wired_ms));
    run.set("wired_step_ms_p99", percentile(rounds.wired_ms, 0.99), "ms",
            n(rounds.wired_ms));
}

}  // namespace perfbench
