/**
 * @file
 * Tests for features added during experiment bring-up: BCE positive
 * weighting, label horizons, materializing co-occurrence labels,
 * cumulative online replay, the BCE multi-label training mode, scaled
 * simulator configurations, and zero-preserving quantization.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/labeler.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "nn/loss.hpp"
#include "nn/quantize.hpp"
#include "sim/simulator.hpp"

namespace voyager {
namespace {

using core::LabelScheme;
using core::LlcAccess;

LlcAccess
acc(Addr pc, Addr line, bool load = true)
{
    LlcAccess a;
    a.pc = pc;
    a.line = line;
    a.is_load = load;
    return a;
}

TEST(BcePosWeight, ScalesPositiveLossAndGradient)
{
    nn::Matrix logits(1, 3);  // zeros: sigmoid 0.5
    nn::Matrix d1;
    nn::Matrix d4;
    const double l1 = nn::bce_multilabel_loss(logits, {{0}}, d1, 1.0f);
    const double l4 = nn::bce_multilabel_loss(logits, {{0}}, d4, 4.0f);
    // Positive term -log(0.5) counted once vs 4x; negatives unchanged.
    EXPECT_NEAR(l4 - l1, 3.0 * std::log(2.0), 1e-5);
    EXPECT_NEAR(d4.at(0, 0), 4.0f * d1.at(0, 0), 1e-6f);
    EXPECT_EQ(d4.at(0, 1), d1.at(0, 1));
}

TEST(BcePosWeight, GradientStillMatchesNumeric)
{
    Rng rng(1);
    nn::Param logits(2, 4);
    nn::uniform_init(logits.value, 1.0f, rng);
    const std::vector<std::vector<std::int32_t>> labels = {{1}, {0, 3}};
    const float w = 5.0f;
    nn::Matrix dl;
    nn::bce_multilabel_loss(logits.value, labels, dl, w);
    logits.grad = dl;
    // Central difference on a few entries.
    const float eps = 1e-2f;
    for (const std::size_t i : {0u, 1u, 5u, 7u}) {
        const float saved = logits.value.data()[i];
        nn::Matrix tmp;
        logits.value.data()[i] = saved + eps;
        const double lp =
            nn::bce_multilabel_loss(logits.value, labels, tmp, w);
        logits.value.data()[i] = saved - eps;
        const double lm =
            nn::bce_multilabel_loss(logits.value, labels, tmp, w);
        logits.value.data()[i] = saved;
        EXPECT_NEAR((lp - lm) / (2 * eps), logits.grad.data()[i], 1e-2);
    }
}

TEST(LabelHorizon, BoundsPcLabelDistance)
{
    // PC 7 recurs one access past the label horizon, then exactly at
    // it: the first recurrence is hidden, the second is a label.
    std::vector<LlcAccess> s;
    s.push_back(acc(7, 100));
    for (std::size_t i = 0; i < core::kLabelHorizon; ++i)
        s.push_back(acc(1, 500 + static_cast<Addr>(i)));
    s.push_back(acc(7, 200));
    const std::size_t second = s.size() - 1;
    for (std::size_t i = 1; i < core::kLabelHorizon; ++i)
        s.push_back(acc(1, 900 + static_cast<Addr>(i)));
    s.push_back(acc(7, 300));

    const auto labels = core::compute_labels(s);
    const auto pc = static_cast<std::size_t>(LabelScheme::Pc);
    EXPECT_FALSE(labels[0][pc].has_value());
    EXPECT_EQ(labels[second][pc], 300u);
}

TEST(CoOccurrence, LabelOnlyWhenItMaterializes)
{
    // Line 10's dominant follower is 77 (2 of 3 windows); the middle
    // occurrence is followed by 88 only, so it gets no co-occ label.
    // Each block is one co-occurrence window long; its fillers are
    // distinct lines.
    std::vector<LlcAccess> s;
    for (const Addr follower : {77, 88, 77}) {
        s.push_back(acc(1, 10));
        s.push_back(acc(1, follower));
        for (std::size_t k = 2; k < core::kCooccurrenceWindow; ++k)
            s.push_back(acc(1, 1000 + s.size()));
    }
    const auto labels = core::compute_labels(s);
    const std::size_t w = core::kCooccurrenceWindow;
    const auto idx = static_cast<std::size_t>(LabelScheme::CoOccurrence);
    EXPECT_EQ(labels[0][idx], 77u);
    EXPECT_FALSE(labels[w][idx].has_value());  // 77 not in this window
    EXPECT_EQ(labels[2 * w][idx], 77u);
}

/** Counts how many indices each train_on call received. */
class CountingModel final : public core::SequenceModel
{
  public:
    std::string name() const override { return "counting"; }
    double
    train_on(const std::vector<std::size_t> &idx) override
    {
        per_epoch.push_back(idx.size());
        return 0.0;
    }
    std::vector<std::vector<Addr>>
    predict_on(const std::vector<std::size_t> &idx,
               std::uint32_t) override
    {
        return std::vector<std::vector<Addr>>(idx.size());
    }
    std::uint64_t parameter_bytes() const override { return 0; }

    std::vector<std::size_t> per_epoch;
};

TEST(CumulativeReplay, TrainsOnEverythingSeenSoFar)
{
    CountingModel m;
    core::OnlineTrainConfig cfg;
    cfg.epochs = 4;
    cfg.train_passes = 1;
    cfg.cumulative = true;
    core::train_online(m, 400, cfg);
    ASSERT_EQ(m.per_epoch.size(), 4u);
    EXPECT_EQ(m.per_epoch[0], 100u);
    EXPECT_EQ(m.per_epoch[1], 200u);
    EXPECT_EQ(m.per_epoch[3], 400u);
}

TEST(CumulativeReplay, CapStillApplies)
{
    CountingModel m;
    core::OnlineTrainConfig cfg;
    cfg.epochs = 4;
    cfg.cumulative = true;
    cfg.max_train_samples_per_epoch = 50;
    core::train_online(m, 400, cfg);
    for (const auto n : m.per_epoch)
        EXPECT_LE(n, 50u);
}

TEST(MultiLabelBce, TrainsAndPredicts)
{
    core::VoyagerConfig cfg;
    cfg.seq_len = 4;
    cfg.pc_embed_dim = 4;
    cfg.page_embed_dim = 8;
    cfg.num_experts = 2;
    cfg.lstm_units = 16;
    cfg.batch_size = 8;
    cfg.dropout_keep = 1.0f;
    cfg.multi_label_loss = core::MultiLabelLoss::Bce;
    core::VoyagerModel m(cfg, 6, 12, core::Vocabulary::kOffsetTokens);

    core::VoyagerBatch b;
    b.batch = cfg.batch_size;
    b.seq = cfg.seq_len;
    Rng rng(3);
    for (std::size_t s = 0; s < b.batch; ++s) {
        std::int32_t tok = static_cast<std::int32_t>(rng.next_below(10));
        for (std::size_t t = 0; t < b.seq; ++t) {
            b.pc.push_back(1);
            b.page.push_back(1 + tok);
            b.offset.push_back(tok);
            tok = (tok + 1) % 10;
        }
        b.labels.push_back({core::TokenLabel{1 + tok, tok}});
    }
    const double first = m.train_step(b);
    double last = first;
    for (int i = 0; i < 60; ++i)
        last = m.train_step(b);
    EXPECT_LT(last, first);
    const auto preds = m.predict(b, 2);
    ASSERT_EQ(preds.size(), b.batch);
    EXPECT_FALSE(preds[0].empty());
}

TEST(ScaledSimConfigs, ShrinkMonotonically)
{
    const auto paper = sim::default_sim_config();
    const auto small = sim::small_sim_config();
    const auto tiny = sim::tiny_sim_config();
    EXPECT_GT(paper.hierarchy.llc.size_bytes,
              small.hierarchy.llc.size_bytes);
    EXPECT_GT(small.hierarchy.llc.size_bytes,
              tiny.hierarchy.llc.size_bytes);
    EXPECT_GT(small.hierarchy.l2.size_bytes,
              small.hierarchy.l1.size_bytes);
    EXPECT_GT(small.hierarchy.llc.size_bytes,
              small.hierarchy.l2.size_bytes);
}

TEST(Quantize, PreservesPrunedZeros)
{
    nn::Matrix m(1, 100);
    Rng rng(4);
    nn::uniform_init(m, 1.0f, rng);
    nn::magnitude_prune(m, 0.6);
    const auto zeros_before = m.size() - nn::nonzero_count(m);
    nn::quantize_dequantize_int8(m);
    const auto zeros_after = m.size() - nn::nonzero_count(m);
    EXPECT_EQ(zeros_before, zeros_after);
}

}  // namespace
}  // namespace voyager
