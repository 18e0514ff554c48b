/**
 * @file
 * Self-healing training-loop tests (DESIGN.md §5.14): HealthMonitor
 * verdicts, rollback-and-retry recovery from injected NaN-gradient
 * and loss-spike faults (the run must complete with quality close to
 * a clean run), recovery exhaustion degrading to the ISB+BO hybrid
 * bit-for-bit, and byte-identical deterministic stats documents for
 * repeated runs of the same seed + FaultPlan.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "prefetch/hybrid.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace voyager {
namespace {

class SelfHealingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault_injector().clear();
        health_stats().reset();
        fault_stats().reset();
    }

    void
    TearDown() override
    {
        fault_injector().clear();
        health_stats().reset();
        fault_stats().reset();
    }
};

using HealthMonitorTest = SelfHealingFixture;
using SelfHealingTest = SelfHealingFixture;

/** Minimal SequenceModel with a controllable finite-ness sweep. */
class StubModel : public core::SequenceModel
{
  public:
    bool finite = true;

    std::string
    name() const override
    {
        return "stub";
    }

    double
    train_on(const std::vector<std::size_t> &) override
    {
        return 0.0;
    }

    std::vector<std::vector<Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t) override
    {
        return std::vector<std::vector<Addr>>(indices.size());
    }

    std::uint64_t
    parameter_bytes() const override
    {
        return 0;
    }

    bool
    state_finite() const override
    {
        return finite;
    }
};

core::LlcAccess
acc(Addr pc, Addr line, std::uint64_t index)
{
    core::LlcAccess a;
    a.index = index;
    a.pc = pc;
    a.line = line;
    a.is_load = true;
    return a;
}

/** A strongly repeating stream: a fixed tour of `period` lines. */
std::vector<core::LlcAccess>
cyclic_stream(std::size_t n, std::size_t period, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> tour(period);
    for (std::size_t i = 0; i < period; ++i)
        tour[i] = 0x10000 + rng.next_below(200) * 7 + i * 3;
    std::vector<core::LlcAccess> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(acc(0x400000 + (i % 4) * 4, tour[i % period], i));
    return s;
}

core::VoyagerConfig
tiny_voyager_config()
{
    core::VoyagerConfig c;
    c.seq_len = 4;
    c.pc_embed_dim = 4;
    c.page_embed_dim = 8;
    c.num_experts = 2;
    c.lstm_units = 8;
    c.batch_size = 16;
    c.seed = 42;
    return c;
}

core::OnlineTrainConfig
tiny_train_config()
{
    core::OnlineTrainConfig tc;
    tc.epochs = 3;
    tc.degree = 2;
    tc.train_passes = 1;
    tc.max_train_samples_per_epoch = 120;
    tc.cumulative = true;
    tc.seed = 1;
    return tc;
}

/** Deterministic stats document: train.* plus health.* and fault.*. */
std::string
deterministic_doc(const core::OnlineResult &res)
{
    StatRegistry reg;
    res.export_stats(reg, "train");
    export_health_stats(reg);
    export_fault_stats(reg);
    StatEmitOptions opts;
    opts.include_volatile = false;
    return reg.json(opts);
}

// ---------------------------------------------------------------------
// HealthMonitor verdicts
// ---------------------------------------------------------------------

TEST_F(HealthMonitorTest, NonFiniteLossIsFlagged)
{
    StubModel model;
    core::HealthMonitor m;
    EXPECT_EQ(m.check(std::nan(""), model),
              core::HealthVerdict::NonFiniteLoss);
    EXPECT_EQ(m.check(std::numeric_limits<double>::infinity(), model),
              core::HealthVerdict::NonFiniteLoss);
    EXPECT_EQ(health_stats().nonfinite_loss, 2u);
    EXPECT_EQ(m.baseline_size(), 0u);
}

TEST_F(HealthMonitorTest, DivergenceNeedsNoBaseline)
{
    StubModel model;
    core::HealthMonitor m;
    EXPECT_EQ(m.check(2e6, model), core::HealthVerdict::LossSpike);
    EXPECT_EQ(health_stats().loss_spikes, 1u);
}

TEST_F(HealthMonitorTest, SpikeDetectionHasAFloor)
{
    StubModel model;
    core::HealthMonitor m;  // factor 8, floor 20
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(m.check(1.0, model), core::HealthVerdict::Healthy);
    EXPECT_EQ(m.baseline_size(), 3u);
    // 15 > 8x baseline mean but below the 20.0 floor: the noisy early
    // epochs of a healthy run must never trip the detector.
    EXPECT_EQ(m.check(15.0, model), core::HealthVerdict::Healthy);
    // 40 clears both the floor and the factor.
    EXPECT_EQ(m.check(40.0, model), core::HealthVerdict::LossSpike);
    // Spiked losses never join the baseline (15 did, 40 did not).
    EXPECT_EQ(m.baseline_size(), 4u);
}

TEST_F(HealthMonitorTest, NonFiniteStateIsFlagged)
{
    StubModel model;
    model.finite = false;
    core::HealthMonitor m;
    EXPECT_EQ(m.check(1.0, model),
              core::HealthVerdict::NonFiniteState);
    EXPECT_EQ(health_stats().nonfinite_state, 1u);
}

TEST_F(HealthMonitorTest, BaselineWindowIsBounded)
{
    StubModel model;
    core::HealthConfig cfg;
    cfg.baseline_window = 4;
    core::HealthMonitor m(cfg);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(m.check(2.0, model), core::HealthVerdict::Healthy);
    EXPECT_EQ(m.baseline_size(), 4u);
    EXPECT_EQ(health_stats().checks, 10u);
}

// ---------------------------------------------------------------------
// Rollback and retry (acceptance: faults trigger recovery; the run
// completes with quality close to a clean run)
// ---------------------------------------------------------------------

TEST_F(SelfHealingTest, RecoversFromGradAndLossFaults)
{
    // An easily learnable tour and enough passes that both runs
    // converge: the 2-point quality bound below compares trained
    // models, not the noisy first epochs.
    const auto stream = cyclic_stream(600, 10, 7);
    auto tc = tiny_train_config();
    tc.epochs = 4;
    tc.train_passes = 3;
    tc.max_train_samples_per_epoch = 200;
    // Score the final epoch only (index 450+): what the model knows
    // after every recovery has played out.
    const std::size_t eval_from = 450;

    core::VoyagerAdapter clean_model(tiny_voyager_config(), stream);
    const auto clean =
        core::train_online(clean_model, stream.size(), tc);
    ASSERT_FALSE(clean.degraded);
    EXPECT_EQ(clean.rollbacks, 0u);
    EXPECT_EQ(clean.skipped_steps, 0u);
    const double clean_unified =
        core::unified_accuracy_coverage(stream, clean.predictions,
                                        eval_from, 32)
            .value();

    fault_injector().install(FaultPlan::parse(
        "nan_grad@step=5;loss_spike@epoch=1:x=1000"));
    core::VoyagerAdapter faulted_model(tiny_voyager_config(), stream);
    const auto faulted =
        core::train_online(faulted_model, stream.size(), tc);

    // Both faults fired; the watchdog skipped the poisoned step and
    // rolled the spiked epoch back, and the run still completed.
    EXPECT_EQ(fault_stats().injected_grad, 1u);
    EXPECT_EQ(fault_stats().injected_loss_spike, 1u);
    EXPECT_FALSE(faulted.degraded);
    EXPECT_EQ(faulted.epoch_losses.size(), tc.epochs);
    EXPECT_GE(faulted.rollbacks, 1u);
    EXPECT_GE(faulted.skipped_steps, 1u);
    EXPECT_EQ(health_stats().rollbacks, faulted.rollbacks);
    // A one-shot fault clears on the first (plain) retry, so the LR
    // backoff never engages.
    EXPECT_EQ(health_stats().lr_backoffs, 0u);
    EXPECT_EQ(health_stats().degraded_runs, 0u);
    for (const double l : faulted.epoch_losses)
        EXPECT_TRUE(std::isfinite(l));

    // Recovery cost: within 2 points of the clean run's unified
    // accuracy/coverage (one skipped step + one backed-off epoch).
    const double faulted_unified =
        core::unified_accuracy_coverage(stream, faulted.predictions,
                                        eval_from, 32)
            .value();
    EXPECT_GT(clean_unified, 0.5);  // the clean run actually learned
    EXPECT_NEAR(faulted_unified, clean_unified, 0.02);
}

// ---------------------------------------------------------------------
// Recovery exhaustion (acceptance: degraded coverage equals the
// standalone ISB+BO hybrid bit-for-bit)
// ---------------------------------------------------------------------

TEST_F(SelfHealingTest, ExhaustionDegradesToIsbBoFallback)
{
    const auto stream = cyclic_stream(400, 20, 7);
    const auto tc = tiny_train_config();

    // A strided weight poison re-fires on every retry, so recovery
    // must exhaust its budget and degrade.
    fault_injector().install(
        FaultPlan::parse("nan_weight@step=4:every=1"));
    core::VoyagerAdapter model(tiny_voyager_config(), stream);
    auto res = core::train_online(model, stream.size(), tc);

    EXPECT_TRUE(res.degraded);
    EXPECT_EQ(res.rollbacks, tc.health.max_retries);
    // Retry 1 replays plainly; retry 2 is the one that backs off.
    EXPECT_EQ(health_stats().lr_backoffs, tc.health.max_retries - 1);
    EXPECT_EQ(health_stats().degraded_runs, 1u);
    EXPECT_GE(fault_stats().injected_weight, 1u);

    // The bench/CLI layer swaps in the shared fallback entry point;
    // its predictions must match a standalone hybrid built at the
    // same degree exactly.
    res.predictions =
        core::isb_bo_fallback_predictions(stream, tc.degree);
    const auto standalone = prefetch::make_isb_bo_hybrid(tc.degree);
    const auto expected =
        core::run_prefetcher_on_stream(*standalone, stream);
    EXPECT_EQ(res.predictions, expected);

    // And scoring them is byte-for-byte the hybrid's coverage.
    const auto a = core::unified_accuracy_coverage(
        stream, res.predictions, res.first_predicted_index, 32);
    const auto b = core::unified_accuracy_coverage(
        stream, expected, res.first_predicted_index, 32);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST_F(SelfHealingTest, DegradedStateLandsInStats)
{
    const auto stream = cyclic_stream(400, 20, 7);
    const auto tc = tiny_train_config();
    fault_injector().install(
        FaultPlan::parse("nan_weight@step=4:every=1"));
    core::VoyagerAdapter model(tiny_voyager_config(), stream);
    const auto res = core::train_online(model, stream.size(), tc);
    ASSERT_TRUE(res.degraded);

    StatRegistry reg;
    res.export_stats(reg, "train");
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"train.degraded\""), std::string::npos);
    EXPECT_NE(doc.find("\"train.rollbacks\""), std::string::npos);
    EXPECT_NE(doc.find("\"train.skipped_steps\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism (acceptance: same seed + FaultPlan => byte-identical
// stats documents across two runs)
// ---------------------------------------------------------------------

TEST_F(SelfHealingTest, SamePlanSameSeedIsByteIdentical)
{
    const auto stream = cyclic_stream(400, 20, 7);
    const auto tc = tiny_train_config();
    const char *spec = "nan_grad@step=5;loss_spike@epoch=1:x=1000";

    fault_injector().install(FaultPlan::parse(spec));
    core::VoyagerAdapter m1(tiny_voyager_config(), stream);
    const auto r1 = core::train_online(m1, stream.size(), tc);
    const std::string doc1 = deterministic_doc(r1);

    health_stats().reset();
    fault_injector().install(FaultPlan::parse(spec));
    core::VoyagerAdapter m2(tiny_voyager_config(), stream);
    const auto r2 = core::train_online(m2, stream.size(), tc);
    const std::string doc2 = deterministic_doc(r2);

    EXPECT_EQ(r1.epoch_losses, r2.epoch_losses);
    EXPECT_EQ(r1.predictions, r2.predictions);
    EXPECT_EQ(r1.rollbacks, r2.rollbacks);
    EXPECT_EQ(r1.skipped_steps, r2.skipped_steps);
    EXPECT_EQ(doc1, doc2);
    EXPECT_NE(doc1.find("\"health.rollbacks\""), std::string::npos);
    EXPECT_NE(doc1.find("\"fault.injected_grad\""), std::string::npos);
}

/**
 * The online protocol without a watchdog, written out: epochs of
 * floor(n/E) samples with the remainder spread over the first ones,
 * predict on each epoch after the first, then train cumulatively on
 * a seeded, sorted subsample of everything seen so far.
 */
core::OnlineResult
plain_epoch_loop(core::SequenceModel &model, std::size_t n,
                 const core::OnlineTrainConfig &tc)
{
    core::OnlineResult res;
    res.predictions.assign(n, {});
    const std::size_t base = n / tc.epochs;
    const std::size_t extra = n % tc.epochs;
    const auto begin = [&](std::size_t e) {
        return e * base + std::min(e, extra);
    };
    Rng rng(tc.seed);
    for (std::size_t e = 0; e < tc.epochs; ++e) {
        if (e > 0) {
            std::vector<std::size_t> idx;
            for (std::size_t i = begin(e); i < begin(e + 1); ++i)
                idx.push_back(i);
            auto preds = model.predict_on(idx, tc.degree);
            for (std::size_t k = 0; k < idx.size(); ++k)
                res.predictions[idx[k]] = std::move(preds[k]);
        }
        std::vector<std::size_t> train_idx;
        for (std::size_t i = 0; i < begin(e + 1); ++i)
            train_idx.push_back(i);
        if (train_idx.size() > tc.max_train_samples_per_epoch) {
            rng.shuffle(train_idx);
            train_idx.resize(tc.max_train_samples_per_epoch);
            std::sort(train_idx.begin(), train_idx.end());
        }
        double loss = 0.0;
        for (std::size_t pass = 0; pass < tc.train_passes; ++pass)
            loss = model.train_on(train_idx);
        res.epoch_losses.push_back(loss);
        model.on_epoch_end();
    }
    return res;
}

TEST_F(SelfHealingTest, CleanRunMatchesPreWatchdogBehavior)
{
    // With no plan installed the watchdog must be an observer only:
    // train_online is bit-identical to the plain epoch loop.
    const auto stream = cyclic_stream(400, 20, 11);
    const auto tc = tiny_train_config();
    ASSERT_TRUE(tc.cumulative);
    ASSERT_GT(tc.max_train_samples_per_epoch, 0u);

    core::VoyagerAdapter watched(tiny_voyager_config(), stream);
    const auto with = core::train_online(watched, stream.size(), tc);

    core::VoyagerAdapter plain(tiny_voyager_config(), stream);
    const auto without = plain_epoch_loop(plain, stream.size(), tc);

    EXPECT_EQ(with.epoch_losses, without.epoch_losses);
    EXPECT_EQ(with.predictions, without.predictions);
    EXPECT_FALSE(with.degraded);
    EXPECT_EQ(with.rollbacks, 0u);
    EXPECT_EQ(health_stats().checks, tc.epochs);
}

}  // namespace
}  // namespace voyager
