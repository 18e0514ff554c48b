/**
 * @file
 * Tests for the Voyager network: configuration, shapes, learning on
 * synthetic token patterns, prediction ranking, and ablation variants.
 */
#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/vocab.hpp"
#include "util/random.hpp"

namespace voyager::core {
namespace {

VoyagerConfig
tiny_config()
{
    VoyagerConfig c;
    c.seq_len = 4;
    c.pc_embed_dim = 4;
    c.page_embed_dim = 8;
    c.num_experts = 3;
    c.lstm_units = 16;
    c.batch_size = 8;
    c.dropout_keep = 1.0f;
    c.learning_rate = 5e-3;
    return c;
}

/** Bytes in the three embedding tables (the §4.2 bottleneck). */
std::uint64_t
embedding_bytes(const VoyagerModel &m)
{
    return (m.pc_embedding().param().size() +
            m.page_embedding().param().size() +
            m.offset_embedding().param().size()) *
           4;
}

/** Batch whose label page/offset is a fixed function of the inputs. */
VoyagerBatch
make_cyclic_batch(const VoyagerConfig &cfg, Rng &rng,
                  std::int32_t num_pages)
{
    VoyagerBatch b;
    b.batch = cfg.batch_size;
    b.seq = cfg.seq_len;
    for (std::size_t s = 0; s < b.batch; ++s) {
        const auto start = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(num_pages)));
        std::int32_t tok = start;
        for (std::size_t t = 0; t < b.seq; ++t) {
            b.pc.push_back(1 + tok % 3);
            b.page.push_back(1 + tok);
            b.offset.push_back(tok % 64);
            tok = (tok + 1) % num_pages;
        }
        // Label: the continuation of the cycle.
        b.labels.push_back({TokenLabel{1 + tok, tok % 64}});
    }
    return b;
}

TEST(VoyagerConfig, PaperHyperparametersMatchTable1)
{
    const auto c = VoyagerConfig::paper();
    EXPECT_EQ(c.seq_len, 16u);
    EXPECT_EQ(c.pc_embed_dim, 64u);
    EXPECT_EQ(c.page_embed_dim, 256u);
    EXPECT_EQ(c.offset_embed_dim(), 25600u);
    EXPECT_EQ(c.num_experts, 100u);
    EXPECT_EQ(c.lstm_units, 256u);
    EXPECT_FLOAT_EQ(c.dropout_keep, 0.8f);
    EXPECT_DOUBLE_EQ(c.learning_rate, 1e-3);
    EXPECT_DOUBLE_EQ(c.lr_decay_ratio, 2.0);
    EXPECT_EQ(c.batch_size, 256u);
    EXPECT_EQ(c.schemes.size(), 5u);
}

TEST(VoyagerModel, ParameterAccounting)
{
    const auto cfg = tiny_config();
    VoyagerModel m(cfg, 10, 20, Vocabulary::kOffsetTokens);
    EXPECT_EQ(m.weights().size(), 13u);
    EXPECT_GT(m.parameter_count(), 0u);
    EXPECT_EQ(m.parameter_bytes(), m.parameter_count() * 4);
    EXPECT_LT(embedding_bytes(m), m.parameter_bytes());
    // Offset embedding = experts * page dim wide.
    EXPECT_EQ(m.offset_embedding().dim(),
              cfg.num_experts * cfg.page_embed_dim);
}

TEST(VoyagerModel, TrainStepReducesLossOnCyclicPattern)
{
    const auto cfg = tiny_config();
    const std::int32_t pages = 12;
    VoyagerModel m(cfg, 8, pages + 1, Vocabulary::kOffsetTokens);
    Rng rng(3);
    double first = 0.0;
    double last = 0.0;
    for (int step = 0; step < 120; ++step) {
        const auto b = make_cyclic_batch(cfg, rng, pages);
        const double loss = m.train_step(b);
        if (step == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.6);
}

TEST(VoyagerModel, LearnsCyclicNextToken)
{
    const auto cfg = tiny_config();
    const std::int32_t pages = 10;
    VoyagerModel m(cfg, 8, pages + 1, Vocabulary::kOffsetTokens);
    Rng rng(4);
    for (int step = 0; step < 250; ++step)
        m.train_step(make_cyclic_batch(cfg, rng, pages));

    // Evaluate top-1 predictions on fresh samples.
    int page_ok = 0;
    int offset_ok = 0;
    int total = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto b = make_cyclic_batch(cfg, rng, pages);
        const auto preds = m.predict(b, 1);
        for (std::size_t s = 0; s < b.batch; ++s) {
            ASSERT_FALSE(preds[s].empty());
            page_ok += preds[s][0].page == b.labels[s][0].page;
            offset_ok += preds[s][0].offset == b.labels[s][0].offset;
            ++total;
        }
    }
    EXPECT_GT(page_ok, total * 7 / 10);
    EXPECT_GT(offset_ok, total * 7 / 10);
}

TEST(VoyagerModel, PredictRanksByJointProbability)
{
    const auto cfg = tiny_config();
    VoyagerModel m(cfg, 8, 20, Vocabulary::kOffsetTokens);
    Rng rng(5);
    const auto b = make_cyclic_batch(cfg, rng, 10);
    const auto preds = m.predict(b, 4);
    for (const auto &cands : preds) {
        ASSERT_LE(cands.size(), 4u);
        for (std::size_t i = 1; i < cands.size(); ++i)
            EXPECT_GE(cands[i - 1].prob, cands[i].prob);
    }
}

TEST(VoyagerModel, SingleLabelSoftmaxVariantTrains)
{
    auto cfg = tiny_config();
    cfg.multi_label = false;
    const std::int32_t pages = 8;
    VoyagerModel m(cfg, 8, pages + 1, Vocabulary::kOffsetTokens);
    Rng rng(6);
    double first = 0.0;
    double last = 0.0;
    for (int step = 0; step < 100; ++step) {
        const double loss =
            m.train_step(make_cyclic_batch(cfg, rng, pages));
        if (step == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}

TEST(VoyagerModel, NoPcFeatureVariantTrains)
{
    auto cfg = tiny_config();
    cfg.use_pc_feature = false;
    const std::int32_t pages = 8;
    VoyagerModel m(cfg, 8, pages + 1, Vocabulary::kOffsetTokens);
    Rng rng(7);
    double first = 0.0;
    double last = 0.0;
    for (int step = 0; step < 100; ++step) {
        const double loss =
            m.train_step(make_cyclic_batch(cfg, rng, pages));
        if (step == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}

TEST(VoyagerModel, MultiLabelTrainsWithSeveralPositives)
{
    const auto cfg = tiny_config();
    VoyagerModel m(cfg, 8, 20, Vocabulary::kOffsetTokens);
    Rng rng(8);
    auto b = make_cyclic_batch(cfg, rng, 10);
    for (auto &labs : b.labels) {
        labs.push_back(TokenLabel{
            std::min<std::int32_t>(19, labs[0].page + 1),
            (labs[0].offset + 1) % 64});
    }
    const double l1 = m.train_step(b);
    EXPECT_GT(l1, 0.0);
    double last = l1;
    for (int i = 0; i < 40; ++i)
        last = m.train_step(b);
    EXPECT_LT(last, l1);
}

TEST(VoyagerModel, LrDecayReducesStepSize)
{
    const auto cfg = tiny_config();
    VoyagerModel m(cfg, 8, 20, Vocabulary::kOffsetTokens);
    m.decay_lr();
    // No crash and training still works after decay.
    Rng rng(9);
    EXPECT_GE(m.train_step(make_cyclic_batch(cfg, rng, 10)), 0.0);
}

TEST(VoyagerModel, PaperScaleModelDwarfsSmall)
{
    // Parameter accounting at paper scale: the offset embedding
    // dominates (25600 wide), exactly the §4.2 bottleneck argument.
    auto paper = VoyagerConfig::paper();
    VoyagerModel big(paper, 100, 1000, Vocabulary::kOffsetTokens);
    const auto cfg = tiny_config();
    VoyagerModel small(cfg, 100, 1000, Vocabulary::kOffsetTokens);
    EXPECT_GT(big.parameter_bytes(), 50 * small.parameter_bytes());
    EXPECT_GT(embedding_bytes(big), big.parameter_bytes() / 2);
}

}  // namespace
}  // namespace voyager::core
