/**
 * @file
 * serve_fp32 and serve_tabular: four tenants replay disjoint held-out
 * slices of bfs through PrefetchServer, driven single-thread and
 * saturating in a seeded uniform interleaving. Tenants never wait for
 * replies (prefetch hints are fire-and-forget); a request's latency
 * is the wall time from its submit() to its arrival in take_ready().
 */
#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/tabular.hpp"
#include "harness.hpp"
#include "nn/ops.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/tabular_predictor.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"
#include "wrappers.hpp"

namespace perfbench::harness {

using namespace voyager;

namespace {

// bench_serve's defaults, with held-out tenant slices.
constexpr std::size_t kTenants = 4;
constexpr std::size_t kRequestsPerTenant = 2000;
constexpr std::uint32_t kServeDegree = 2;
constexpr std::size_t kServeTrainCap = 2000;
constexpr std::uint64_t kTableBudget = 256 * 1024;
/** Requests the fp32 batch-invariance check replays at max_batch=1. */
constexpr std::size_t kInvarianceSample = 64;
/** Interleavings per measured serve_tabular pass. One takes ~45 ms and
 *  its p99 hinges on the few batches that fall back to the model, so a
 *  pass groups enough of them for a steady per-pass p99. */
constexpr std::size_t kTabularGroup = 8;

struct ServeFixture
{
    std::vector<core::LlcAccess> stream;
    /** Borrows `stream`; declared after it so it is destroyed first. */
    std::unique_ptr<core::VoyagerAdapter> adapter;
    std::unique_ptr<core::TabularTable> table;
    std::vector<std::vector<sim::LlcAccess>> slices;
    /** Setup training through the model interface. */
    CallTotals train;
    CallTotals predict;
};

std::unique_ptr<ServeFixture>
setup_serve(bool tabular, SpanRecorder *rec)
{
    auto f = std::make_unique<ServeFixture>();
    f->stream = small_llc_stream("bfs", rec);
    const core::VoyagerConfig vc = scaled_voyager_config();
    {
        ScopedSpan s(rec, "core.adapter_build");
        f->adapter = std::make_unique<core::VoyagerAdapter>(vc, f->stream);
    }
    // bench_serve's training: two epochs over a capped prefix (epoch 0
    // is train-only under the online protocol).
    core::OnlineTrainConfig tc;
    tc.epochs = 2;
    tc.degree = kServeDegree;
    tc.train_passes = 1;
    tc.max_train_samples_per_epoch = kServeTrainCap;
    tc.cumulative = true;
    tc.seed = kTraceSeed;
    const std::size_t train_n = std::min(
        f->stream.size(), 2 * std::max(kServeTrainCap, vc.seq_len * 4));
    {
        ScopedSpan s(rec, "core.train_online");
        TracedModel model(*f->adapter, rec);
        if (core::train_online(model, train_n, tc).degraded)
            throw std::runtime_error("serve setup: training degraded");
        f->train = model.train_totals();
        f->predict = model.predict_totals();
    }
    if (tabular) {
        // Distil the fp32 teacher over its own training prefix, then
        // serve misses through the int8 engine: the degradation
        // ladder's distilled rung.
        {
            ScopedSpan s(rec, "core.distill");
            core::TabularConfig tab;
            tab.degree = kServeDegree;
            tab.budget_bytes = kTableBudget;
            std::vector<std::size_t> idx(train_n - f->adapter->min_index());
            std::iota(idx.begin(), idx.end(), f->adapter->min_index());
            const auto teacher =
                f->adapter->predict_token_candidates(idx, tab.degree + 2);
            f->table = std::make_unique<core::TabularTable>(
                core::distill_to_table(f->adapter->encoded(), idx, teacher,
                                       vc.seq_len, tab));
        }
        ScopedSpan s(rec, "core.int8_snapshot");
        f->adapter->enable_int8_inference();
    }
    f->slices =
        tenant_slices(f->stream, train_n, kTenants, kRequestsPerTenant);
    return f;
}

/** One serving pass: every tenant's slice replayed in one interleaving. */
struct ServePass
{
    double cpu_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t answered = 0;
    /** Shed, expired, unanswered, duplicated or misrouted requests. */
    std::uint64_t failed = 0;
    std::vector<double> latency_us;
    /** Virtual submit-to-dispatch ticks of every answered request. */
    std::vector<double> wait_ticks;
    /** responses[t][seq]: tenant t's answer to its request seq. */
    std::vector<std::vector<serve::PrefetchResponse>> responses;
};

std::uint64_t
request_id(std::uint32_t tenant, std::uint64_t seq)
{
    return (static_cast<std::uint64_t>(tenant) << 32) | seq;
}

ServePass
serve_pass(serve::TokenPredictor &pred, const ServeFixture &f,
           std::uint64_t seed, std::uint64_t pass_no, SpanRecorder *rec,
           StatRegistry *reg)
{
    const std::size_t tenants = f.slices.size();
    std::vector<std::size_t> sizes;
    for (const auto &s : f.slices)
        sizes.push_back(s.size());
    const auto schedule = tenant_schedule(seed, pass_no, sizes);

    serve::PrefetchServer server(pred, serve::ServeConfig{});
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0; t < tenants; ++t)
        clients.emplace_back(t, f.slices[t], f.adapter->vocab(),
                             pred.seq_len(), kServeDegree);

    ServePass out;
    out.responses.resize(tenants);
    std::vector<std::vector<std::int64_t>> submit_ns(tenants);
    // 0 = not accepted, 1 = accepted and pending, 2 = answered.
    std::vector<std::vector<std::uint8_t>> state(tenants);
    for (std::size_t t = 0; t < tenants; ++t) {
        out.responses[t].resize(sizes[t]);
        submit_ns[t].assign(sizes[t], 0);
        state[t].assign(sizes[t], 0);
    }
    out.latency_us.reserve(schedule.size());

    const auto route = [&](std::vector<serve::PrefetchResponse> ready) {
        const std::int64_t t = now_ns();
        for (serve::PrefetchResponse &r : ready) {
            if (r.tenant >= tenants || r.seq >= sizes[r.tenant] ||
                state[r.tenant][r.seq] != 1 || r.expired) {
                ++out.failed;
                continue;
            }
            state[r.tenant][r.seq] = 2;
            ++out.answered;
            out.latency_us.push_back(
                static_cast<double>(t - submit_ns[r.tenant][r.seq]) * 1e-3);
            out.wait_ticks.push_back(static_cast<double>(r.wait_ticks));
            out.responses[r.tenant][r.seq] = std::move(r);
        }
    };

    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = cpu_ns();
    for (const std::uint32_t t : schedule) {
        serve::PrefetchRequest req;
        {
            ScopedSpan s(rec, "serve.client.next_request",
                         request_id(t, clients[t].issued()));
            req = clients[t].next_request();
        }
        const std::uint64_t seq = req.seq;
        submit_ns[t][seq] = now_ns();
        serve::SubmitResult r;
        {
            ScopedSpan s(rec, "serve.submit", request_id(t, seq));
            r = server.submit(std::move(req));
        }
        if (r == serve::SubmitResult::Accepted)
            state[t][seq] = 1;
        route(server.take_ready());
    }
    {
        ScopedSpan s(rec, "serve.flush");
        server.flush();
    }
    route(server.take_ready());
    out.cpu_s = cpu_seconds_since(c0);
    out.wall_s = seconds_since(t0);
    out.submitted = schedule.size();
    out.failed += out.submitted - out.answered;
    if (reg != nullptr)
        server.export_stats(*reg);
    return out;
}

/** Served lines of the sampled requests, replayed one per batch. */
void
check_batch_invariance(serve::TokenPredictor &pred, const ServeFixture &f,
                       const ServePass &ref, std::uint64_t seed,
                       Checks &chk)
{
    serve::ServeConfig sc;
    sc.max_batch = 1;
    serve::PrefetchServer server(pred, sc);
    Rng rng(mix(seed, 0xba7c4));
    std::vector<std::vector<std::uint8_t>> want(f.slices.size());
    for (std::size_t t = 0; t < f.slices.size(); ++t)
        want[t].assign(f.slices[t].size(), 0);
    for (std::size_t i = 0; i < kInvarianceSample; ++i) {
        const std::size_t t = rng.next_below(f.slices.size());
        want[t][rng.next_below(f.slices[t].size())] = 1;
    }
    std::size_t compared = 0;
    for (std::uint32_t t = 0; t < f.slices.size(); ++t) {
        serve::SimulatedClient client(t, f.slices[t], f.adapter->vocab(),
                                      pred.seq_len(), kServeDegree);
        while (!client.done()) {
            serve::PrefetchRequest req = client.next_request();
            const std::uint64_t seq = req.seq;
            if (!want[t][seq])
                continue;
            server.submit(std::move(req));
            const auto ready = server.take_ready();
            ++compared;
            chk.expect(ready.size() == 1 &&
                           ready[0].lines == ref.responses[t][seq].lines,
                       fmt("tenant %u request %llu: max_batch=1 serves "
                           "different lines",
                           t, static_cast<unsigned long long>(seq)));
        }
    }
    chk.expect(compared > 0, "batch invariance: no request sampled");
}

/** Check one pass's accounting and its lines against the reference. */
void
check_pass(const ServePass &p, const ServePass *ref, const char *what,
           Checks &chk)
{
    chk.expect(p.failed == 0,
               fmt("%s: %llu of %llu requests shed, expired, unanswered "
                   "or answered twice",
                   what, static_cast<unsigned long long>(p.failed),
                   static_cast<unsigned long long>(p.submitted)));
    if (ref == nullptr)
        return;
    bool same = true;
    for (std::size_t t = 0; t < p.responses.size() && same; ++t)
        for (std::size_t i = 0; i < p.responses[t].size() && same; ++i)
            same = p.responses[t][i].lines == ref->responses[t][i].lines;
    chk.expect(same, fmt("%s: served lines differ from the first pass",
                         what));
}

}  // namespace

Measured
run_serve(const Options &opt, bool tabular, SpanRecorder *rec,
          Result &res, Checks &chk)
{
    Measured m;

    std::unique_ptr<ServeFixture> f;
    CallTotals train;
    CallTotals predict;
    const auto set_up = [&](std::size_t) {
        f.reset();
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        ScopedSpan phase(rec, "setup");
        f = setup_serve(tabular, rec);
        m.setup_s.push_back(cpu_seconds_since(c0));
        m.setup_wall_s.push_back(seconds_since(t0));
        train.add(f->train);
        predict.add(f->predict);
    };
    run_passes(kSetupSeconds, kSetupRepeats, kMaxSetupRepeats, set_up);

    serve::AdapterPredictor neural(*f->adapter);
    const auto untraced_pass = [&](std::size_t p) {
        if (!tabular)
            return serve_pass(neural, *f, opt.seed, p, nullptr, nullptr);
        serve::TabularPredictor tp(*f->table, neural);
        return serve_pass(tp, *f, opt.seed, p, nullptr, nullptr);
    };

    // Untraced passes give the end-to-end figures. The first pass is
    // the reference every later pass must reproduce line for line.
    ServePass ref;
    std::vector<double> rps;
    std::vector<double> wall_rps;
    LatencyPool latency;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t group = tabular ? kTabularGroup : 1;
    run_passes(
        untraced_s, kMinPasses, std::numeric_limits<std::size_t>::max(),
        [&](std::size_t p) {
            std::vector<double> latency_us;
            double answered = 0.0;
            double cpu_s = 0.0;
            double wall_s = 0.0;
            for (std::size_t g = 0; g < group; ++g) {
                const std::size_t id = p * group + g;
                ServePass pass = untraced_pass(id);
                check_pass(pass, id == 0 ? nullptr : &ref, "untraced pass",
                           chk);
                res.attempted += pass.submitted;
                res.failed += pass.failed;
                answered += static_cast<double>(pass.answered);
                cpu_s += pass.cpu_s;
                wall_s += pass.wall_s;
                latency_us.insert(latency_us.end(), pass.latency_us.begin(),
                                  pass.latency_us.end());
                if (id == 0) {
                    ref = std::move(pass);
                    m.peak_rss_mib = peak_rss_mib();
                }
            }
            rps.push_back(ratio(answered, cpu_s));
            wall_rps.push_back(ratio(answered, wall_s));
            latency.add_pass(latency_us);
        });
    res.report.push_back(fmt("requests per pass: %llu (%zu tenants x %zu)",
                             static_cast<unsigned long long>(ref.submitted),
                             kTenants, kRequestsPerTenant));
    set_work_rate(m, rps, wall_rps, "req_per_s", res);
    set_latency(m, std::move(latency), "request", res, chk);
    const auto [accurate, served] =
        prefetch_accuracy(f->slices, ref.responses, kHorizon);
    m.quality = ratio(static_cast<double>(accurate),
                      static_cast<double>(served));
    chk.expect(served > 0, "no prefetch lines served");

    std::uint64_t lines = 0;
    for (const auto &tenant : ref.responses)
        for (const auto &r : tenant)
            lines += r.lines.size();
    res.report.push_back(
        fmt("failed_share = %.6f", ratio(static_cast<double>(res.failed),
                                         static_cast<double>(res.attempted))));
    res.report.push_back(fmt("prefetch_accuracy = %.6f (%llu of %llu lines)",
                             m.quality,
                             static_cast<unsigned long long>(accurate),
                             static_cast<unsigned long long>(lines)));

    if (!tabular) {
        // The b1 server goes through an unrecorded wrapper, so the
        // check also covers the wrapper's forwarding.
        TracedPredictor plain(neural, nullptr, "core.predict_tokens", true);
        check_batch_invariance(plain, *f, ref, opt.seed, chk);
    }
    if (!opt.trace)
        return m;

    // Traced passes: same requests, wrapped predictors, spans on.
    TracedPredictor traced_neural(neural, rec, "core.predict_tokens",
                                  !tabular);
    std::uint64_t requests = 0, batches = 0, padded = 0, served_lines = 0;
    std::uint64_t probes = 0, hits = 0, fallback_rows = 0;
    std::vector<double> wait_p99;
    std::vector<double> traced_rps;
    std::uint64_t tabular_rows = 0;
    nn::op_stats().reset();
    const std::size_t traced_passes = run_passes(
        opt.seconds / 2, 1, kMaxTracedPasses, [&](std::size_t p) {
            StatRegistry reg;
            ServePass pass;
            {
                ScopedSpan phase(rec, "measure");
                if (tabular) {
                    serve::TabularPredictor tp(*f->table, traced_neural);
                    TracedPredictor traced_tab(tp, rec, "core.tabular",
                                               true);
                    pass = serve_pass(traced_tab, *f, opt.seed, p, rec, &reg);
                    tp.export_stats(reg);
                    tabular_rows += traced_tab.totals().items;
                } else {
                    pass = serve_pass(traced_neural, *f, opt.seed, p, rec,
                                      &reg);
                }
            }
            check_pass(pass, &ref, "traced pass", chk);
            traced_rps.push_back(
                ratio(static_cast<double>(pass.answered), pass.cpu_s));
            requests += reg.counter("serve.requests");
            batches += reg.counter("serve.batches");
            padded += reg.counter("serve.padded_rows");
            served_lines += reg.counter("serve.lines");
            wait_p99.push_back(summarize(pass.wait_ticks).tail);
            if (tabular) {
                probes += reg.counter("distill.serve.probes");
                hits += reg.counter("distill.serve.l1_hits") +
                        reg.counter("distill.serve.l2_hits");
                fallback_rows += reg.counter("distill.serve.fallback_rows");
            }
        });
    m.traced_work_per_s = median(traced_rps);

    const auto tot = rec->totals();
    const double n_req = static_cast<double>(requests);
    const double n_passes = static_cast<double>(traced_passes);
    auto &L = m.layer;
    L["serve.submit.self_us_per_req"] =
        ratio((totals_of(tot, "serve.submit").self_seconds +
               totals_of(tot, "serve.flush").self_seconds) * 1e6, n_req);
    const LayerTotals next = totals_of(tot, "serve.client.next_request");
    L["serve.client.next_request_us"] =
        ratio(next.seconds * 1e6, static_cast<double>(next.calls));
    L["serve.batch_rows_mean"] = ratio(n_req, static_cast<double>(batches));
    L["serve.padded_rows_share"] = ratio(static_cast<double>(padded), n_req);
    L["serve.wait_ticks_p99"] = median(wait_p99);
    const LayerTotals dec = totals_of(tot, "serve.decode");
    L["serve.decode.calls"] = static_cast<double>(dec.calls) / n_passes;
    L["serve.decode.us_per_call"] =
        ratio(dec.seconds * 1e6, static_cast<double>(dec.calls));
    L["serve.lines_per_candidate"] = ratio(static_cast<double>(served_lines),
                                           static_cast<double>(dec.calls));
    const CallTotals &fwd = traced_neural.totals();
    // Setup trains through the model interface; this moves setup_s.
    L["core.train_on.us_per_sample"] =
        ratio(train.seconds * 1e6, static_cast<double>(train.items));
    L["core.predict_on.us_per_sample"] =
        ratio(predict.seconds * 1e6, static_cast<double>(predict.items));
    L["core.predict_tokens.us_per_row"] =
        ratio(fwd.seconds * 1e6, static_cast<double>(fwd.items));
    L["core.predict_tokens.rows_per_call"] =
        ratio(static_cast<double>(fwd.items), static_cast<double>(fwd.calls));
    nn_metrics(L, fwd.seconds);
    const auto &vocab = f->adapter->vocab();
    L["core.rank.us_per_row"] = rank_us_per_row(
        serve::ServeConfig{}.max_batch, vocab.num_page_tokens(),
        vocab.num_offset_tokens(),
        kServeDegree + serve::ServeConfig{}.over_fetch, opt.seed);
    if (tabular) {
        const double probe_s = totals_of(tot, "core.tabular").self_seconds;
        L["core.tabular.probe_us_per_row"] =
            ratio(probe_s * 1e6, static_cast<double>(tabular_rows));
        L["core.tabular.hit_rate"] = ratio(static_cast<double>(hits),
                                           static_cast<double>(probes));
        L["core.tabular.fallback_rows"] =
            static_cast<double>(fallback_rows) / n_passes;
        L["core.tabular.fallback_us_per_row"] =
            ratio(fwd.seconds * 1e6, static_cast<double>(fallback_rows));
        const double wall = totals_of(tot, "measure").seconds;
        res.report.push_back(
            fmt("fallback share of serving wall time = %.4f",
                ratio(fwd.seconds, wall)));
        res.report.push_back(
            fmt("table probe share of serving wall time = %.4f",
                ratio(probe_s, wall)));
    }
    const nn::OpStats &ops = nn::op_stats();
    res.report.push_back(fmt(
        "%s forward: lstm_gate share %.4f, gemm share %.4f, qgemm share "
        "%.4f, attention share %.4f, rank share %.4f",
        tabular ? "int8" : "fp32", ratio(ops.lstm_gate.seconds, fwd.seconds),
        ratio(ops.gemm.seconds, fwd.seconds),
        ratio(ops.qgemm.seconds, fwd.seconds),
        ratio(ops.attention.seconds, fwd.seconds),
        ratio(L["core.rank.us_per_row"], L["core.predict_tokens.us_per_row"])));
    return m;
}

}  // namespace perfbench::harness
