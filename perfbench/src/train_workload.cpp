/**
 * @file
 * train_online: a scaled Voyager trains on xalancbmk with the online
 * protocol (epochs, cumulative replay, capped samples), then the
 * trained model answers batch-1 predictions. Training goes through
 * TracedModel in every run: its few calls per epoch time train_on and
 * predict_on, the Fig-17 axes.
 */
#include <limits>
#include <memory>

#include "core/metrics.hpp"
#include "harness.hpp"
#include "nn/ops.hpp"
#include "util/random.hpp"
#include "wrappers.hpp"

namespace perfbench::harness {

using namespace voyager;

namespace {

// A shortened small-scale online schedule over the first
// kTrainAccesses of the stream; the vocabulary still covers all of it.
constexpr std::size_t kTrainAccesses = 9000;
constexpr std::size_t kTrainEpochs = 3;
constexpr std::size_t kTrainCap = 1000;
constexpr std::uint32_t kTrainDegree = 1;
/** Batch-1 predictions timed after each training. */
constexpr std::size_t kPredictProbes = 1000;

/** Order-sensitive hash of predicted lines. */
std::uint64_t
hash_lines(const std::vector<std::vector<Addr>> &preds)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &slot : preds) {
        h = mix(h, slot.size());
        for (const Addr a : slot)
            h = mix(h, a);
    }
    return h;
}

struct TrainPass
{
    /** train_on and predict_on calls inside the online protocol. */
    CallTotals train;
    CallTotals predict;
    double unified_accuracy = 0.0;
    /** Samples trained, predicted and probed. */
    std::uint64_t samples = 0;
    std::uint64_t predictions_hash = 0;
    bool degraded = false;
    std::vector<double> probe_us;
};

TrainPass
train_pass(core::VoyagerAdapter &adapter,
           const std::vector<core::LlcAccess> &stream, std::uint64_t seed,
           std::uint64_t pass_no, SpanRecorder *rec)
{
    const std::vector<core::LlcAccess> prefix(
        stream.begin(),
        stream.begin() + static_cast<std::ptrdiff_t>(
                             std::min(stream.size(), kTrainAccesses)));
    core::OnlineTrainConfig tc;
    tc.epochs = kTrainEpochs;
    tc.degree = kTrainDegree;
    tc.train_passes = 1;
    tc.max_train_samples_per_epoch = kTrainCap;
    tc.cumulative = true;
    tc.seed = kTraceSeed;

    TrainPass out;
    TracedModel model(adapter, rec);
    core::OnlineResult r;
    {
        ScopedSpan s(rec, "core.train_online");
        r = core::train_online(model, prefix.size(), tc);
    }
    out.degraded = r.degraded;
    out.unified_accuracy =
        core::unified_accuracy_coverage(prefix, r.predictions,
                                        r.first_predicted_index, kHorizon)
            .value();
    out.predictions_hash = hash_lines(r.predictions);
    out.train = model.train_totals();
    out.predict = model.predict_totals();
    out.samples = out.train.items + out.predict.items;

    // Batch-1 prediction latency of the trained model, at evenly
    // spaced stream points visited in a seeded order.
    std::vector<std::size_t> idx(kPredictProbes);
    const std::size_t lo = r.first_predicted_index;
    for (std::size_t i = 0; i < kPredictProbes; ++i)
        idx[i] = lo + i * (prefix.size() - lo) / kPredictProbes;
    Rng rng(mix(seed, pass_no));
    for (std::size_t i = idx.size(); i > 1; --i)
        std::swap(idx[i - 1], idx[rng.next_below(i)]);
    out.probe_us.reserve(idx.size());
    ScopedSpan s(rec, "probe.predict_b1");
    for (const std::size_t i : idx) {
        const std::int64_t t0 = now_ns();
        const auto p = adapter.predict_on({i}, kTrainDegree);
        out.probe_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        out.samples += p.size();
    }
    return out;
}

}  // namespace

Measured
run_train(const Options &opt, SpanRecorder *rec, Result &res,
          Checks &chk)
{
    Measured m;
    const core::VoyagerConfig vc = scaled_voyager_config();

    std::vector<core::LlcAccess> stream;
    std::unique_ptr<core::VoyagerAdapter> adapter;
    const auto set_up = [&](std::size_t) {
        adapter.reset();
        stream.clear();
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        ScopedSpan phase(rec, "setup");
        stream = small_llc_stream("xalancbmk", rec);
        ScopedSpan s(rec, "core.adapter_build");
        adapter = std::make_unique<core::VoyagerAdapter>(vc, stream);
        m.setup_s.push_back(cpu_seconds_since(c0));
        m.setup_wall_s.push_back(seconds_since(t0));
    };
    run_passes(kSetupSeconds, kSetupRepeats, kMaxSetupRepeats, set_up);

    // Every pass trains a fresh model; the setup's adapter serves the
    // first untraced pass.
    const auto fresh = [&](std::size_t p) {
        if (p > 0) {
            ScopedSpan s(rec, "core.adapter_build");
            adapter.reset();
            adapter = std::make_unique<core::VoyagerAdapter>(vc, stream);
        }
        return adapter.get();
    };
    std::vector<TrainPass> passes;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    run_passes(untraced_s, kMinPasses, std::numeric_limits<std::size_t>::max(),
               [&](std::size_t p) {
                   passes.push_back(train_pass(*fresh(p), stream, opt.seed,
                                               p, nullptr));
                   if (p == 0)
                       m.peak_rss_mib = peak_rss_mib();
               });
    std::vector<double> sps;
    std::vector<double> wall_sps;
    std::vector<double> predict_us;
    LatencyPool probe;
    for (const TrainPass &p : passes) {
        chk.expect(!p.degraded, "training degraded");
        chk.expect(p.predictions_hash == passes.front().predictions_hash,
                   "online predictions differ between passes");
        sps.push_back(ratio(static_cast<double>(p.train.items),
                            p.train.cpu_seconds));
        wall_sps.push_back(ratio(static_cast<double>(p.train.items),
                                 p.train.seconds));
        predict_us.push_back(ratio(p.predict.cpu_seconds * 1e6,
                                   static_cast<double>(p.predict.items)));
        probe.add_pass(p.probe_us);
        res.attempted += p.samples;
        if (p.degraded)
            res.failed += p.samples;
    }
    m.quality = passes.front().unified_accuracy;
    chk.expect(m.quality > 0.0 && m.quality <= 1.0,
               fmt("unified accuracy %.6f out of (0, 1]", m.quality));
    res.report.push_back(fmt("stream: %zu LLC accesses, %d page tokens",
                             stream.size(),
                             adapter->vocab().num_page_tokens()));
    set_work_rate(m, sps, wall_sps, "train_samples_per_s", res);
    set_latency(m, std::move(probe), "predict_b1", res, chk);
    // latency_p50_us is the Fig-17 inference axis: batched predict_on
    // inside the online protocol, per sample; latency_p99_us stays the
    // tail of the batch-1 predictions.
    m.latency_p50_us = median(predict_us);
    res.report.push_back(
        fmt("predict_us_per_sample = %.3f us of thread CPU time (batched, "
            "inside the online protocol; median of %zu passes)",
            m.latency_p50_us, predict_us.size()));
    res.report.push_back(pass_spread("predict_us_per_sample", predict_us));
    res.report.push_back(fmt("unified_accuracy = %.6f", m.quality));
    if (!opt.trace)
        return m;

    nn::op_stats().reset();
    std::vector<double> traced_sps;
    CallTotals train;
    CallTotals predict;
    run_passes(opt.seconds / 2, 1, kMaxTracedPasses, [&](std::size_t p) {
        core::VoyagerAdapter *a = nullptr;
        TrainPass tp;
        {
            ScopedSpan phase(rec, "measure");
            a = fresh(p + 1);
            tp = train_pass(*a, stream, opt.seed, p, rec);
        }
        chk.expect(tp.predictions_hash == passes.front().predictions_hash,
                   "traced training predicts differently from untraced");
        traced_sps.push_back(ratio(static_cast<double>(tp.train.items),
                                   tp.train.cpu_seconds));
        train.add(tp.train);
        predict.add(tp.predict);
    });
    m.traced_work_per_s = median(traced_sps);
    const auto tot = rec->totals();
    auto &L = m.layer;
    L["core.train_on.us_per_sample"] =
        ratio(train.seconds * 1e6, static_cast<double>(train.items));
    L["core.predict_on.us_per_sample"] =
        ratio(predict.seconds * 1e6, static_cast<double>(predict.items));
    // The batch-1 probes run the model too, outside train_on/predict_on.
    const double model_s = train.seconds + predict.seconds +
                           totals_of(tot, "probe.predict_b1").seconds;
    nn_metrics(L, model_s);
    const nn::OpStats &ops = nn::op_stats();
    res.report.push_back(fmt(
        "model time (train_on, predict_on, batch-1 probes) %.3f s: "
        "lstm_gate share %.4f, gemm share %.4f, attention share %.4f",
        model_s, ratio(ops.lstm_gate.seconds, model_s),
        ratio(ops.gemm.seconds, model_s),
        ratio(ops.attention.seconds, model_s)));
    L["core.rank.us_per_row"] = rank_us_per_row(
        vc.batch_size, adapter->vocab().num_page_tokens(),
        adapter->vocab().num_offset_tokens(), kTrainDegree + 2, opt.seed);
    return m;
}

}  // namespace perfbench::harness
