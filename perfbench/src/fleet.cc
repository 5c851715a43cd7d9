#include "fleet.h"

#include <cstdio>

#include "runtime/dispatcher.h"
#include "runtime/wired.h"

namespace perfbench {

using namespace astra;

namespace {

constexpr int kReplicas = 2;
constexpr int kMaxBatch = 4;

/**
 * Nominal load as a share of the fleet's batch capacity (replicas x
 * full batches of the largest bucket): about half of serve_max_rps.
 */
constexpr double kNominalLoad = 0.07;

/** Ladder rates as shares of batch capacity, then bisection steps. */
constexpr double kLadder[] = {0.04, 0.08, 0.12, 0.16, 0.2, 0.24, 0.28};
constexpr int kBisect = 6;

/** Requests slower than this many largest-bucket batches miss. */
constexpr double kSloBatches = 30.0;

serve::FleetOptions
fleet_options(const std::string& store, bool record_batches)
{
    serve::ServeOptions so;
    so.bucket_lengths = {4, 6, 8};
    so.build = [](GraphBuilder& b, int length) {
        ModelConfig cfg;
        cfg.batch = kMaxBatch;
        cfg.seq_len = length;
        cfg.hidden = 32;
        cfg.embed_dim = 32;
        cfg.vocab = 50;
        BuiltModel m = build_model(ModelKind::Scrnn, cfg);
        b = std::move(*m.builder);
    };
    so.astra = pinned_options(store);
    so.astra.features = features_fk();
    so.max_batch = kMaxBatch;
    so.record_batches = record_batches;

    serve::FleetOptions fo;
    fo.base = std::move(so);
    fo.replicas = kReplicas;
    fo.queue_capacity = 64;
    fo.queue_policy = serve::QueuePolicy::EdfShed;
    fo.faults = FaultPlan();  // replica faults pinned off, too
    return fo;
}

/** Poisson arrivals at `rps` with one 2x burst over the middle fifth. */
serve::TrafficConfig
traffic_config(double batch_ns, double rps, int64_t requests,
               uint64_t seed)
{
    serve::TrafficConfig cfg;
    cfg.base_rps = rps;
    // The burst doubles the rate over 20% of the trace: mean 1.2x.
    cfg.duration_ns = static_cast<double>(requests) / (1.2 * rps) * 1e9;
    cfg.slo_ns = kSloBatches * batch_ns;
    cfg.length_div = 10;
    cfg.min_length = 2;
    cfg.seed = seed;
    cfg.bursts.push_back(
        {0.4 * cfg.duration_ns, 0.6 * cfg.duration_ns, 2.0});
    return cfg;
}

int64_t
unresolved(const serve::FleetReport& r)
{
    return r.total.rejected + r.shed + r.evicted + r.failed +
           r.total.dropped;
}

/** The exactly-once audit; returns whether it held. */
bool
audit(Run& run, const serve::FleetReport& r, const std::string& what)
{
    bool ok = run.checks.check(
        r.total.served + r.total.rejected + r.shed + r.evicted +
                r.failed ==
            r.total.offered,
        what + ": resolutions do not sum to offered");
    ok &= run.checks.check(r.double_served == 0,
                           what + ": double-served requests");
    ok &= run.checks.check(r.total.dropped == 0, what + ": dropped requests");
    return ok;
}

}  // namespace

Fleet
setup_fleet(Run& run, const std::string& store, int64_t nominal_requests,
            uint64_t seed)
{
    Fleet f;
    f.store = store;
    f.fleet = std::make_unique<serve::ReplicaFleet>(
        fleet_options(store, run.trace));
    f.wire_s = run.speed.seconds([&] {
        auto span = run.spans.scope("serve.fleet_optimize");
        f.minibatches = f.fleet->optimize();
    });
    const serve::BucketedServer& proto = f.fleet->prototype();
    f.batch_ns = proto.plan(proto.router().num_buckets() - 1).baseline_ns;
    f.capacity_rps = kReplicas * kMaxBatch * 1e9 / f.batch_ns;

    f.traffic_gen_s = run.speed.seconds([&] {
        auto span = run.spans.scope("serve.traffic_gen");
        f.traffic = serve::generate_traffic(
            traffic_config(f.batch_ns, kNominalLoad * f.capacity_rps,
                           nominal_requests, seed));
    });
    return f;
}

std::vector<Winner>
fleet_winners(Run& run, const Fleet& f)
{
    const serve::BucketedServer& proto = f.fleet->prototype();
    const BucketedAstra& router = proto.router();
    std::vector<Winner> out;
    for (int i = 0; i < router.num_buckets(); ++i) {
        const WirerResult& r = router.bucket_result(i);
        const AstraSession& s = router.session(i);
        const serve::BucketedServer::BucketPlan plan = proto.plan(i);
        Winner w;
        w.name = "bucket" + std::to_string(router.bucket_lengths()[
                                static_cast<size_t>(i)]);
        w.config = r.best_config;
        w.fnv = config_fnv(r.best_config);
        w.minibatches = r.minibatches;
        w.convergence = r.convergence;
        w.cmds = static_cast<int64_t>(plan.binary->program.cmds.size());
        run.checks.attempt(1);
        run.checks.check(r.termination == WirerTermination::Complete,
                         w.name + ": wirer termination is " +
                             wirer_termination_name(r.termination));
        run.checks.check(plan.config_fnv == w.fnv,
                         w.name + ": installed plan is not the winner");
        run.checks.check(verify_wired(*plan.binary).ok,
                         w.name + ": wired binary failed verification");
        const GpuConfig& gpu = s.options().gpu;
        const DispatchResult generic = dispatch_plan(
            *s.scheduler().build_cached(w.config), s.graph(),
            s.tensor_map(w.config.strategy), gpu);
        const DispatchResult wired = replay_wired(*plan.binary, gpu);
        run.checks.check(same_result(generic, wired),
                         w.name + ": replay_wired differs from dispatch_plan");
        w.sim_ns = generic.total_ns;
        w.native_ns = s.run_native().total_ns;
        std::printf("winner %-10s fnv %s sim_ns %.1f native_ns %.1f "
                    "minibatches %lld\n",
                    w.name.c_str(), hash_hex(w.fnv).c_str(), w.sim_ns,
                    w.native_ns, static_cast<long long>(w.minibatches));
        out.push_back(std::move(w));
    }
    return out;
}

double
restart_fleet(Run& run, const std::string& store,
              const std::vector<Winner>& winners)
{
    std::unique_ptr<serve::ReplicaFleet> fresh;
    const double wall = run.speed.seconds([&] {
        fresh = std::make_unique<serve::ReplicaFleet>(
            fleet_options(store, false));
        auto span = run.spans.scope("serve.fleet_optimize");
        fresh->optimize();
    });
    const BucketedAstra& router = fresh->prototype().router();
    for (int i = 0; i < router.num_buckets(); ++i) {
        const Winner& w = winners[static_cast<size_t>(i)];
        const std::string tier = router.convergence_report(i).store_tier;
        const uint64_t fnv = config_fnv(router.bucket_result(i).best_config);
        run.checks.attempt(1);
        ++run.restarts;
        run.l1_hits += tier == "l1";
        run.checks.check(tier == "l1", w.name +
                                           ": restart answered from store "
                                           "tier " + tier);
        run.checks.check(fnv == w.fnv,
                         w.name + ": restart config fnv " + hash_hex(fnv) +
                             " differs from cold winner " +
                             hash_hex(w.fnv));
    }
    return wall;
}

Rounds
fleet_rounds(Run& run, const Fleet& f, const std::vector<Winner>& winners,
             double seconds, int min_rounds)
{
    const serve::BucketedServer& proto = f.fleet->prototype();
    const BucketedAstra& router = proto.router();
    std::vector<serve::BucketedServer::BucketPlan> plans;
    for (int i = 0; i < router.num_buckets(); ++i)
        plans.push_back(proto.plan(i));

    const auto round = [&](bool compiled) {
        bool ok = true;
        for (size_t i = 0; i < plans.size(); ++i) {
            const AstraSession& s = router.session(static_cast<int>(i));
            if (compiled) {
                auto span = run.spans.scope("wired.replay", winners[i].name);
                ok &= replay_wired(*plans[i].binary, s.options().gpu)
                          .total_ns == winners[i].sim_ns;
            } else {
                auto span = run.spans.scope("dispatcher.dispatch_plan",
                                            winners[i].name);
                ok &= s.run(winners[i].config).total_ns == winners[i].sim_ns;
            }
        }
        return ok;
    };
    return run_rounds(run, seconds, min_rounds,
                      static_cast<int64_t>(plans.size()),
                      [&] { return round(false); },
                      [&] { return round(true); });
}

ServeTiming
serve_phase(Run& run, Fleet& f, const ServeScale& scale)
{
    // Host side: drain the pre-generated nominal trace as fast as the
    // loop runs. Simulated results must repeat exactly across drains.
    std::vector<double> drain_s;
    serve::FleetReport first;
    const double start = now_s();
    while (static_cast<int>(drain_s.size()) < scale.min_drains ||
           now_s() - start < scale.drain_seconds) {
        serve::FleetReport rep;
        drain_s.push_back(run.speed.seconds([&] {
            auto span = run.spans.scope("serve.fleet_serve");
            rep = f.fleet->serve(f.traffic);
        }));
        audit(run, rep, "nominal drain");
        if (drain_s.size() == 1) {
            first = std::move(rep);
            run.checks.fail(unresolved(first), first.total.offered);
            continue;
        }
        run.checks.check(rep.total.served == first.total.served &&
                             rep.total.p99_ns == first.total.p99_ns &&
                             rep.total.makespan_ns ==
                                 first.total.makespan_ns &&
                             rep.shed == first.shed &&
                             rep.evicted == first.evicted,
                         "repeated drain diverged (lost determinism)");
    }
    const serve::ServeReport& t = first.total;
    run.set("serve_p50_ms", t.p50_ns / 1e6, "ms", t.latency_samples);
    run.set("serve_p99_ms", t.p99_ns / 1e6, "ms", t.latency_samples);
    run.set("goodput_rps", t.goodput_rps, "1/s", t.offered);
    run.set("drain_krps",
            static_cast<double>(t.offered) / median(drain_s) / 1e3,
            "1e3/s", static_cast<int64_t>(drain_s.size()));

    // Simulated capacity: the highest rate whose p99 meets the SLO with
    // at most 1% of requests unresolved, refined by bisection between
    // the last passing and first failing ladder rung.
    const double slo_ns = kSloBatches * f.batch_ns;
    const auto passes = [&](double load) {
        const double rps = load * f.capacity_rps;
        auto span = run.spans.scope("serve.ladder_rung");
        const serve::FleetReport rep = f.fleet->serve(serve::generate_traffic(
            traffic_config(f.batch_ns, rps, scale.ladder_requests,
                           run.seed)));
        audit(run, rep, "ladder rung");
        const bool ok = rep.total.p99_ns <= slo_ns &&
                        unresolved(rep) * 100 <= rep.total.offered;
        std::printf("ladder %.0f rps: p99 %.3f ms, unresolved %lld/%lld "
                    "-> %s\n",
                    rps, rep.total.p99_ns / 1e6,
                    static_cast<long long>(unresolved(rep)),
                    static_cast<long long>(rep.total.offered),
                    ok ? "pass" : "fail");
        return ok;
    };
    double lo = 0.0, hi = 0.0;
    for (double load : kLadder) {
        if (!passes(load)) {
            hi = load;
            break;
        }
        lo = load;
    }
    for (int i = 0; hi > 0.0 && i < kBisect; ++i) {
        const double mid = 0.5 * (lo + hi);
        (passes(mid) ? lo : hi) = mid;
    }
    run.checks.check(lo > 0.0, "no ladder rate meets the SLO");
    run.set("serve_max_rps", lo * f.capacity_rps, "1/s");
    std::printf("serve: nominal %.0f rps (capacity %.0f), %zu drains of "
                "%lld requests\n",
                kNominalLoad * f.capacity_rps, f.capacity_rps,
                drain_s.size(), static_cast<long long>(t.offered));

    if (!run.trace)
        return {median(drain_s), 0.0};
    // Loop self time: the drain minus the batches' replay cost.
    const serve::BucketedServer& proto = f.fleet->prototype();
    std::vector<int64_t> per_bucket(
        static_cast<size_t>(proto.router().num_buckets()), 0);
    for (const serve::BatchRecord& b : t.batch_log)
        ++per_bucket[static_cast<size_t>(b.bucket)];
    double replay_s = 0.0;
    for (size_t i = 0; i < per_bucket.size(); ++i) {
        const auto plan = proto.plan(static_cast<int>(i));
        const GpuConfig& gpu =
            proto.router().session(static_cast<int>(i)).options().gpu;
        std::vector<double> ts;
        const double factor = run.speed.read();
        for (int k = 0; k < 50; ++k) {
            const double t0 = now_s();
            replay_wired(*plan.binary, gpu);
            ts.push_back((now_s() - t0) * factor);
        }
        replay_s += median(ts) * static_cast<double>(per_bucket[i]);
    }
    const double serve_s = median(drain_s);
    run.set_layer("serve.fleet_serve_s", serve_s, "s");
    run.set_layer("serve.loop_self_s", serve_s - replay_s, "s");
    run.set_layer("serve.batches", static_cast<double>(t.batches), "count");
    run.set_layer("serve.batch_occupancy", t.mean_batch_occupancy / kMaxBatch,
                  "frac");
    run.set_layer("serve.padded_token_frac", t.padded_token_frac, "frac");
    run.set_layer("serve.shed", static_cast<double>(first.shed), "count");
    run.set_layer("serve.evicted", static_cast<double>(first.evicted),
                  "count");
    run.set_layer("serve.traffic_gen_s", f.traffic_gen_s, "s");
    return {serve_s, replay_s};
}

std::vector<ProbeTarget>
fleet_targets(const Fleet& f, const std::vector<Winner>& winners)
{
    const BucketedAstra& router = f.fleet->prototype().router();
    std::vector<ProbeTarget> out;
    for (int i = 0; i < router.num_buckets(); ++i) {
        const AstraSession& s = router.session(i);
        ProbeTarget t;
        t.name = winners[static_cast<size_t>(i)].name;
        t.graph = &s.graph();
        t.winner = &winners[static_cast<size_t>(i)];
        t.opts = s.options();
        t.store = f.store;
        out.push_back(std::move(t));
    }
    return out;
}

}  // namespace perfbench
