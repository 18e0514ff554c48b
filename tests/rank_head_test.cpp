/**
 * @file
 * Tests for the fused ranking head (DESIGN.md §5.26): nn::softmax_topk
 * on its own (top k by logit with ties to the smaller column, the
 * masked partial block, non-finite logits, saturated sigmoids), and
 * core::rank_token_predictions against the materialised head it
 * replaced (core::rank_token_predictions_ref in reference.hpp) on
 * random logits of every vocabulary shape the model uses and beyond.
 * Also pins the softmax-once CE step of VoyagerModel::train_step bit
 * for bit against the two-softmax form it replaced.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "nn/attention.hpp"
#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "reference.hpp"
#include "util/random.hpp"

namespace voyager {
namespace {

using core::TokenPrediction;
using nn::Matrix;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct Kept
{
    std::vector<std::int32_t> idx;
    std::vector<float> prob;
};

Kept
head(const std::vector<float> &row, std::size_t k, bool sigmoid)
{
    Kept out;
    out.idx.resize(std::min(k, row.size()));
    out.prob.resize(out.idx.size());
    const std::size_t kept =
        nn::softmax_topk(row.data(), row.size(), k, sigmoid,
                         out.idx.data(), out.prob.data());
    EXPECT_EQ(kept, out.idx.size());
    return out;
}

/** Double-precision softmax of one column of `row`. */
double
softmax_ref(const std::vector<float> &row, std::size_t c)
{
    double mx = row[0];
    for (const float v : row)
        mx = std::max(mx, static_cast<double>(v));
    // The exponent is l - max rounded to float, as in the head: the
    // comparison then measures the exp and the sum, not that rounding.
    const auto term = [mx](float v) {
        return std::exp(static_cast<double>(v - static_cast<float>(mx)));
    };
    double sum = 0.0;
    for (const float v : row)
        sum += term(v);
    return term(row[c]) / sum;
}

Matrix
uniform_logits(std::size_t rows, std::size_t cols, float scale, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] =
            static_cast<float>((2.0 * rng.next_double() - 1.0) * scale);
    return m;
}

bool
near_rel(float a, float b, float rel)
{
    // The absolute floor covers joint products that land in the
    // subnormal range, where float keeps fewer significant bits.
    return std::fabs(a - b) <=
           rel * std::max(std::fabs(a), std::fabs(b)) +
               std::numeric_limits<float>::min();
}

TEST(SoftmaxTopk, KeepsTopByLogitTiesToSmallerColumn)
{
    const std::vector<float> row = {1.0f, 3.0f, 3.0f, 2.0f, 3.0f, -1.0f};
    for (const bool sigmoid : {false, true}) {
        EXPECT_EQ(head(row, 2, sigmoid).idx,
                  (std::vector<std::int32_t>{1, 2}));
        EXPECT_EQ(head(row, 4, sigmoid).idx,
                  (std::vector<std::int32_t>{1, 2, 4, 3}));
        EXPECT_EQ(head(row, 9, sigmoid).idx,
                  (std::vector<std::int32_t>{1, 2, 4, 3, 0, 5}));
        EXPECT_TRUE(head(row, 0, sigmoid).idx.empty());
    }
    // An ascending row inserts every column at the front.
    std::vector<float> up(40);
    for (std::size_t c = 0; c < up.size(); ++c)
        up[c] = static_cast<float>(c);
    EXPECT_EQ(head(up, 3, false).idx,
              (std::vector<std::int32_t>{39, 38, 37}));
}

TEST(SoftmaxTopk, PartialBlockMatchesDoubleSoftmax)
{
    // n < 16 (one partial block only) and the max inside the partial
    // block of a longer row, small and large logit scales.
    Rng rng(11);
    for (const std::size_t n : {1u, 2u, 5u, 15u, 16u, 17u, 20u, 31u, 47u}) {
        for (const float scale : {0.5f, 4.0f, 30.0f}) {
            std::vector<float> row(n);
            for (float &v : row)
                v = static_cast<float>((2.0 * rng.next_double() - 1.0) *
                                       scale);
            row[n - 1] = scale + 1.0f;  // max in the last block
            const Kept kept = head(row, n, false);
            ASSERT_EQ(kept.idx[0], static_cast<std::int32_t>(n - 1));
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double want = softmax_ref(
                    row, static_cast<std::size_t>(kept.idx[i]));
                EXPECT_NEAR(kept.prob[i], want, 2e-6 * want + 1e-30)
                    << "n=" << n << " scale=" << scale << " rank " << i;
                sum += kept.prob[i];
            }
            EXPECT_NEAR(sum, 1.0, 1e-5) << "n=" << n;
        }
    }
}

TEST(SoftmaxTopk, ExponentialsAreNeverSubnormal)
{
    // Far below the max, the vectorised exp stops at about FLT_MIN
    // instead of sliding into the subnormal range.
    for (const float low : {-87.0f, -88.0f, -100.0f, -1e4f, -kInf}) {
        const Kept kept = head({0.0f, low}, 2, false);
        EXPECT_EQ(kept.prob[0], 1.0f);
        EXPECT_NE(std::fpclassify(kept.prob[1]), FP_SUBNORMAL) << low;
        EXPECT_GE(kept.prob[1], 0.0f);
        EXPECT_LT(kept.prob[1], 1e-37f);
    }
}

/**
 * The serve ladder falls through to the next engine on a non-finite
 * probability, so one NaN or +inf logit anywhere in a row, kept or
 * not, must reach every kept probability of either head kind.
 */
void
expect_non_finite_logit_poisons_row(bool sigmoid)
{
    for (const std::size_t n : {1u, 3u, 16u, 17u, 40u, 276u}) {
        for (const float bad : {kNaN, kInf}) {
            for (std::size_t c = 0; c < n; ++c) {
                std::vector<float> row(n);
                for (std::size_t i = 0; i < n; ++i)
                    row[i] = static_cast<float>(i % 7) - 3.0f;
                row[c] = bad;
                for (const std::size_t k : {1u, 3u}) {
                    const Kept kept = head(row, k, sigmoid);
                    for (const float p : kept.prob)
                        ASSERT_FALSE(std::isfinite(p))
                            << "n=" << n << " col " << c << " k=" << k;
                }
            }
        }
    }
}

TEST(SoftmaxTopk, NonFiniteLogitPoisonsTheSoftmaxRow)
{
    expect_non_finite_logit_poisons_row(false);
}

TEST(SoftmaxTopk, NonFiniteLogitPoisonsTheSigmoidRow)
{
    expect_non_finite_logit_poisons_row(true);
}

TEST(SoftmaxTopk, SigmoidIsLibmBitForBitAndSaturatedTiesRankLargerLogit)
{
    Rng rng(12);
    std::vector<float> row(37);
    for (float &v : row)
        v = static_cast<float>((2.0 * rng.next_double() - 1.0) * 12.0);
    Matrix ref(1, row.size());
    std::memcpy(ref.data(), row.data(), row.size() * sizeof(float));
    nn::sigmoid_inplace(ref);
    const Kept kept = head(row, row.size(), true);
    for (std::size_t i = 0; i < kept.idx.size(); ++i) {
        const float want =
            ref.at(0, static_cast<std::size_t>(kept.idx[i]));
        EXPECT_EQ(std::memcmp(&kept.prob[i], &want, sizeof(float)), 0);
    }

    // sigmoid(20) == sigmoid(30) == 1 in float: the head still ranks
    // the larger logit first, in each head and in the joint ranking.
    const Kept sat = head({20.0f, 30.0f, 0.0f, 25.0f}, 3, true);
    EXPECT_EQ(sat.idx, (std::vector<std::int32_t>{1, 3, 0}));
    EXPECT_EQ(sat.prob[0], 1.0f);
    EXPECT_EQ(sat.prob[2], 1.0f);
    Matrix pages(1, 4);
    pages.at(0, 0) = 20.0f;
    pages.at(0, 1) = 30.0f;
    pages.at(0, 3) = 25.0f;
    Matrix offsets(1, 3);
    offsets.at(0, 0) = 40.0f;
    offsets.at(0, 2) = 35.0f;
    const auto ranked =
        core::rank_token_predictions(pages, offsets, true, 5);
    ASSERT_EQ(ranked[0].size(), 5u);
    const std::int32_t want[5][2] = {
        {1, 0}, {1, 2}, {3, 0}, {3, 2}, {0, 0}};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ranked[0][i].page, want[i][0]) << "rank " << i;
        EXPECT_EQ(ranked[0][i].offset, want[i][1]) << "rank " << i;
        EXPECT_EQ(ranked[0][i].prob, 1.0f);
    }
}

TEST(RankHead, NonFiniteLogitPoisonsOnlyItsRow)
{
    Rng rng(13);
    Matrix pages = uniform_logits(3, 23, 4.0f, rng);
    Matrix offsets = uniform_logits(3, 64, 4.0f, rng);
    pages.at(1, 19) = kNaN;
    offsets.at(2, 63) = kInf;
    for (const bool bce : {false, true}) {
        const auto ranked =
            core::rank_token_predictions(pages, offsets, bce, 4);
        for (std::size_t b = 0; b < 3; ++b) {
            ASSERT_EQ(ranked[b].size(), 4u);
            for (const TokenPrediction &p : ranked[b])
                EXPECT_EQ(std::isfinite(p.prob), b == 0)
                    << (bce ? "bce" : "ce") << " row " << b;
        }
    }
}

/**
 * Compare the fused head with the oracle on one pair of logit
 * matrices. Returns the number of rows exempt from the order check
 * because the oracle's ranking (one entry past the cut included) has
 * two joint probabilities within 1e-5 relative of each other.
 */
std::size_t
expect_matches_oracle(const Matrix &pages, const Matrix &offsets,
                      bool bce, std::size_t k)
{
    constexpr float kTie = 1e-5f;
    const auto got = core::rank_token_predictions(pages, offsets, bce, k);
    const auto want =
        core::rank_token_predictions_ref(pages, offsets, bce, k);
    const auto wider =
        core::rank_token_predictions_ref(pages, offsets, bce, k + 1);
    std::size_t exempt = 0;
    for (std::size_t b = 0; b < pages.rows(); ++b) {
        SCOPED_TRACE(testing::Message()
                     << (bce ? "bce " : "ce ") << pages.cols() << "x"
                     << offsets.cols() << " k=" << k << " row " << b);
        EXPECT_EQ(got[b].size(),
                  std::min(k, pages.cols() * offsets.cols()));
        if (got[b].size() != want[b].size())
            return exempt;
        bool near_tie = false;
        for (std::size_t i = 1; i < wider[b].size(); ++i)
            if (near_rel(wider[b][i - 1].prob, wider[b][i].prob, kTie))
                near_tie = true;
        exempt += near_tie;
        for (std::size_t i = 0; i < got[b].size(); ++i) {
            const TokenPrediction &g = got[b][i];
            const TokenPrediction &w = want[b][i];
            if (bce)
                EXPECT_EQ(std::memcmp(&g.prob, &w.prob, sizeof(float)), 0)
                    << "rank " << i << ": " << g.prob << " vs " << w.prob;
            else
                EXPECT_TRUE(near_rel(g.prob, w.prob, kTie))
                    << "rank " << i << ": " << g.prob << " vs " << w.prob;
            if (!near_tie) {
                EXPECT_EQ(g.page, w.page) << "rank " << i;
                EXPECT_EQ(g.offset, w.offset) << "rank " << i;
            }
        }
    }
    return exempt;
}

TEST(RankHead, MatchesMaterialisedOracleOnRandomLogits)
{
    // Logits uniform in [-scale, scale]; rows and exempt rows counted
    // per head kind (0 = softmax, 1 = sigmoid).
    Rng rng(14);
    std::size_t rows[2] = {};
    std::size_t exempt[2] = {};
    const auto check = [&](const Matrix &pages, const Matrix &offsets,
                           bool bce, std::size_t k) {
        exempt[bce] += expect_matches_oracle(pages, offsets, bce, k);
        rows[bce] += pages.rows();
    };
    const std::size_t pages_shapes[] = {1, 2, 7, 15, 16, 17, 23, 64, 276,
                                        300};
    const std::size_t offset_shapes[] = {1, 3, 16, 33, 64, 70};
    const float scales[] = {1.0f, 3.0f, 10.0f, 30.0f};
    for (const std::size_t np : pages_shapes) {
        for (const std::size_t no : offset_shapes) {
            for (const float scale : scales) {
                for (const bool bce : {false, true}) {
                    const Matrix pages = uniform_logits(4, np, scale, rng);
                    const Matrix offsets =
                        uniform_logits(4, no, scale, rng);
                    for (std::size_t k = 0; k <= 12; ++k)
                        check(pages, offsets, bce, k);
                    // k above both vocabulary sizes.
                    check(pages, offsets, bce, std::max(np, no) + 3);
                }
            }
        }
    }
    // Random sizes in between.
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t np = 1 + rng.next_below(300);
        const std::size_t no = 1 + rng.next_below(70);
        const float scale =
            1.0f + static_cast<float>(rng.next_double()) * 29.0f;
        const std::size_t batch = 1 + rng.next_below(8);
        check(uniform_logits(batch, np, scale, rng),
              uniform_logits(batch, no, scale, rng), rng.next_below(2) == 1,
              rng.next_below(13));
    }
    // Sigmoids saturate: above a logit of about 11.5 neighbouring
    // probabilities lie within 1e-5, and above about 17 they are all
    // exactly 1, so many sigmoid rows are near-ties at scales 10 and 30.
    std::printf("[ rank head ] rows exempt from the order check (oracle "
                "near-tie within 1e-5): softmax %zu of %zu, sigmoid %zu "
                "of %zu\n",
                exempt[0], rows[0], exempt[1], rows[1]);
    EXPECT_LT(exempt[0] * 20, rows[0]);
    EXPECT_LT(exempt[1] * 2, rows[1]);
}

TEST(RankHead, MatchesMaterialisedOracleOnTinyAdapterLogits)
{
    // A tiny trained Voyager on a cyclic stream: its logits are
    // peaked, unlike uniform random ones.
    Rng rng(16);
    std::vector<Addr> tour(30);
    for (std::size_t i = 0; i < tour.size(); ++i)
        tour[i] = 0x10000 + rng.next_below(200) * 7 + i * 3;
    std::vector<sim::LlcAccess> stream(600);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i].index = i;
        stream[i].instr_id = i;
        stream[i].pc = 0x400000 + (i % 4) * 4;
        stream[i].line = tour[i % tour.size()];
    }
    core::VoyagerConfig vc;
    vc.seq_len = 4;
    vc.pc_embed_dim = 4;
    vc.page_embed_dim = 8;
    vc.num_experts = 2;
    vc.lstm_units = 8;
    vc.batch_size = 16;
    vc.seed = 42;
    core::VoyagerAdapter adapter(vc, stream);
    core::OnlineTrainConfig tc;
    tc.epochs = 2;
    tc.degree = 2;
    tc.max_train_samples_per_epoch = 200;
    tc.seed = 1;
    core::train_online(adapter, stream.size(), tc);

    const core::EncodedStream &e = adapter.encoded();
    const std::size_t T = vc.seq_len;
    core::VoyagerBatch batch;
    batch.seq = T;
    for (std::size_t i = adapter.min_index(); i < e.size(); i += 5) {
        ++batch.batch;
        for (std::size_t s = i + 1 - T; s <= i; ++s) {
            batch.pc.push_back(e.pc[s]);
            batch.page.push_back(e.page[s]);
            batch.offset.push_back(e.offset[s]);
        }
    }
    core::VoyagerModel &model = adapter.model();
    const nn::MoeAttention attn(vc.num_experts, vc.attention_scale);
    const core::BatchInputs &in = core::assemble_inputs(
        batch, vc, model.pc_embedding(), model.page_embedding(),
        model.offset_embedding(), attn);
    Matrix logits[2];
    for (const bool page : {true, false}) {
        const nn::Lstm lstm = page ? model.page_lstm() : model.offset_lstm();
        Matrix proj;
        Matrix h;
        lstm.project_inputs(in.x, proj);
        nn::Lstm(lstm).forward_inference(proj, in.steps, h);
        nn::Linear head = page ? model.page_head() : model.offset_head();
        head.forward(h, logits[page ? 0 : 1]);
    }

    std::size_t exempt = 0;
    for (const bool bce : {false, true})
        for (const std::size_t k : {1u, 3u, 4u, 9u, 64u})
            exempt += expect_matches_oracle(logits[0], logits[1], bce, k);
    std::printf("[ rank head ] %zu of %zu adapter rows exempt from the "
                "order check\n",
                exempt, 10 * batch.batch);

    // The model's own predict ranks these same logits.
    const auto preds = model.predict(batch, 3);
    const auto ranked =
        core::rank_token_predictions(logits[0], logits[1], false, 3);
    ASSERT_EQ(preds.size(), ranked.size());
    for (std::size_t b = 0; b < preds.size(); ++b) {
        ASSERT_EQ(preds[b].size(), ranked[b].size());
        for (std::size_t i = 0; i < preds[b].size(); ++i) {
            EXPECT_EQ(preds[b][i].page, ranked[b][i].page);
            EXPECT_EQ(preds[b][i].offset, ranked[b][i].offset);
            EXPECT_EQ(preds[b][i].prob, ranked[b][i].prob);
        }
    }
}

TEST(TrainStepLoss, SoftmaxOnceMatchesTwoSoftmaxFormBitForBit)
{
    // VoyagerModel::train_step's SoftmaxBest CE: each head's softmax
    // is taken once into the gradient matrix, the label pick reads it,
    // then softmax_ce_from_probs turns it into the gradient in place.
    // The form it replaced softmaxed copies for the pick and then ran
    // softmax_ce_loss on the logits again.
    Rng rng(15);
    for (const std::size_t batch : {1u, 7u, 64u}) {
        const Matrix pl = uniform_logits(batch, 276, 6.0f, rng);
        const Matrix ol = uniform_logits(batch, 64, 6.0f, rng);
        std::vector<std::vector<core::TokenLabel>> labels(batch);
        for (auto &l : labels) {
            const std::size_t n = 1 + rng.next_below(3);
            for (std::size_t i = 0; i < n; ++i)
                l.push_back(
                    {static_cast<std::int32_t>(rng.next_below(276)),
                     static_cast<std::int32_t>(rng.next_below(64))});
        }

        // Two-softmax form.
        Matrix page_probs = pl;
        Matrix offset_probs = ol;
        nn::softmax_rows(page_probs);
        nn::softmax_rows(offset_probs);
        std::vector<std::int32_t> ref_p(batch);
        std::vector<std::int32_t> ref_o(batch);
        core::pick_softmax_best(page_probs, offset_probs, labels, ref_p,
                                ref_o);
        Matrix ref_dp;
        Matrix ref_do;
        double ref_loss = nn::softmax_ce_loss(pl, ref_p, ref_dp);
        ref_loss += nn::softmax_ce_loss(ol, ref_o, ref_do);

        // Softmax-once form.
        Matrix dp = pl;
        Matrix dof = ol;
        nn::softmax_rows(dp);
        nn::softmax_rows(dof);
        std::vector<std::int32_t> p(batch);
        std::vector<std::int32_t> o(batch);
        core::pick_softmax_best(dp, dof, labels, p, o);
        double loss = nn::softmax_ce_from_probs(dp, p);
        loss += nn::softmax_ce_from_probs(dof, o);

        EXPECT_EQ(p, ref_p);
        EXPECT_EQ(o, ref_o);
        EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0);
        ASSERT_EQ(dp.size(), ref_dp.size());
        ASSERT_EQ(dof.size(), ref_do.size());
        EXPECT_EQ(std::memcmp(dp.data(), ref_dp.data(),
                              dp.size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(dof.data(), ref_do.data(),
                              dof.size() * sizeof(float)),
                  0);
    }
}

}  // namespace
}  // namespace voyager
