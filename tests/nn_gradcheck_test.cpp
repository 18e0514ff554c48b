/**
 * @file
 * Gradient checks: every hand-written backward pass is verified
 * against central differences on small random problems.
 */
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"

namespace voyager::nn {
namespace {

constexpr double kTol = 0.03;  // relative error under float arithmetic

TEST(GradCheck, LinearWeightsAndBias)
{
    Rng rng(1);
    Linear lin(4, 3, rng);
    Matrix x(2, 4);
    uniform_init(x, 1.0f, rng);
    const std::vector<std::int32_t> labels = {1, 2};

    auto loss_fn = [&]() {
        Matrix y;
        lin.forward(x, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    // Analytic pass.
    Matrix y;
    lin.forward(x, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dx;
    lin.backward(dl, dx);

    EXPECT_LT(gradient_check(lin.weight(), loss_fn,
                             sample_indices(lin.weight().size(), 12)),
              kTol);
    EXPECT_LT(gradient_check(lin.bias(), loss_fn,
                             sample_indices(lin.bias().size(), 3)),
              kTol);
}

TEST(GradCheck, EmbeddingThroughLinear)
{
    Rng rng(2);
    Embedding emb(6, 4, rng);
    Linear lin(4, 3, rng);
    const std::vector<std::int32_t> ids = {2, 5, 2};
    const std::vector<std::int32_t> labels = {0, 1, 2};

    auto loss_fn = [&]() {
        Matrix h;
        emb.forward(ids, h);
        Matrix y;
        lin.forward(h, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    Matrix h;
    emb.forward(ids, h);
    Matrix y;
    lin.forward(h, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dh;
    lin.backward(dl, dh);
    emb.backward(ids, dh);

    // Check rows 2 and 5 of the table (touched rows).
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < 4; ++c) {
        idx.push_back(2 * 4 + c);
        idx.push_back(5 * 4 + c);
    }
    EXPECT_LT(gradient_check(emb.param(), loss_fn, idx), kTol);
}

TEST(GradCheck, LstmAllParams)
{
    Rng rng(3);
    const std::size_t T = 4;
    const std::size_t B = 2;
    const std::size_t in = 3;
    const std::size_t H = 5;
    Lstm lstm(in, H, rng);
    Linear head(H, 2, rng);
    std::vector<Matrix> xs(T, Matrix(B, in));
    for (auto &x : xs)
        uniform_init(x, 1.0f, rng);
    const std::vector<std::int32_t> labels = {0, 1};

    auto loss_fn = [&]() {
        Matrix h;
        lstm.forward(xs, h);
        Matrix y;
        head.forward(h, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    Matrix h;
    lstm.forward(xs, h);
    Matrix y;
    head.forward(h, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dh;
    head.backward(dl, dh);
    std::vector<Matrix> dxs;
    lstm.backward(dh, dxs);

    EXPECT_LT(gradient_check(lstm.wx(), loss_fn,
                             sample_indices(lstm.wx().size(), 16)),
              kTol);
    EXPECT_LT(gradient_check(lstm.wh(), loss_fn,
                             sample_indices(lstm.wh().size(), 16)),
              kTol);
    EXPECT_LT(gradient_check(lstm.bias(), loss_fn,
                             sample_indices(lstm.bias().size(), 8)),
              kTol);
}

TEST(GradCheck, LstmWideInputNarrowHidden)
{
    // in_dim > hidden exercises the non-square GEMM paths (wx is
    // (7, 16), wh is (4, 16)) that a square configuration can mask.
    Rng rng(11);
    const std::size_t T = 3;
    const std::size_t B = 2;
    const std::size_t in = 7;
    const std::size_t H = 4;
    Lstm lstm(in, H, rng);
    Linear head(H, 2, rng);
    std::vector<Matrix> xs(T, Matrix(B, in));
    for (auto &x : xs)
        uniform_init(x, 1.0f, rng);
    const std::vector<std::int32_t> labels = {1, 0};

    auto loss_fn = [&]() {
        Matrix h;
        lstm.forward(xs, h);
        Matrix y;
        head.forward(h, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    Matrix h;
    lstm.forward(xs, h);
    Matrix y;
    head.forward(h, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dh;
    head.backward(dl, dh);
    std::vector<Matrix> dxs;
    lstm.backward(dh, dxs);

    EXPECT_LT(gradient_check(lstm.wx(), loss_fn,
                             sample_indices(lstm.wx().size(), 16)),
              kTol);
    EXPECT_LT(gradient_check(lstm.wh(), loss_fn,
                             sample_indices(lstm.wh().size(), 16)),
              kTol);
    EXPECT_LT(gradient_check(lstm.bias(), loss_fn,
                             sample_indices(lstm.bias().size(), 8)),
              kTol);
}

TEST(GradCheck, LstmInputGradient)
{
    // Check dL/dx via a param-shaped wrapper: route x through a fake
    // Param so gradient_check can perturb it.
    Rng rng(4);
    const std::size_t T = 3;
    const std::size_t B = 1;
    Lstm lstm(2, 4, rng);
    Linear head(4, 2, rng);
    Param x0(B, 2);
    uniform_init(x0.value, 1.0f, rng);
    Matrix x1(B, 2);
    Matrix x2(B, 2);
    uniform_init(x1, 1.0f, rng);
    uniform_init(x2, 1.0f, rng);
    const std::vector<std::int32_t> labels = {1};

    auto loss_fn = [&]() {
        std::vector<Matrix> xs = {x0.value, x1, x2};
        Matrix h;
        lstm.forward(xs, h);
        Matrix y;
        head.forward(h, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    std::vector<Matrix> xs = {x0.value, x1, x2};
    Matrix h;
    lstm.forward(xs, h);
    Matrix y;
    head.forward(h, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dh;
    head.backward(dl, dh);
    std::vector<Matrix> dxs;
    lstm.backward(dh, dxs);
    ASSERT_EQ(dxs.size(), T);
    x0.grad = dxs[0];

    EXPECT_LT(gradient_check(x0, loss_fn, sample_indices(2, 2)), kTol);
}

TEST(GradCheck, MoeAttentionBothInputs)
{
    Rng rng(5);
    const std::size_t B = 2;
    const std::size_t d = 3;
    const std::size_t experts = 4;
    MoeAttention attn(experts, 0.7f);
    Linear head(d, 2, rng);
    Param page(B, d);
    Param offset(B, experts * d);
    uniform_init(page.value, 1.0f, rng);
    uniform_init(offset.value, 1.0f, rng);
    const std::vector<std::int32_t> labels = {0, 1};

    auto loss_fn = [&]() {
        Matrix out;
        attn.forward(page.value, offset.value, out);
        Matrix y;
        head.forward(out, y);
        Matrix dl;
        return softmax_ce_loss(y, labels, dl);
    };

    Matrix out;
    attn.forward(page.value, offset.value, out);
    Matrix y;
    head.forward(out, y);
    Matrix dl;
    softmax_ce_loss(y, labels, dl);
    Matrix dout;
    head.backward(dl, dout);
    Matrix dpage;
    Matrix doffset;
    attn.backward(dout, dpage, doffset);
    page.grad = dpage;
    offset.grad = doffset;

    EXPECT_LT(gradient_check(page, loss_fn,
                             sample_indices(page.size(), 6)),
              kTol);
    EXPECT_LT(gradient_check(offset, loss_fn,
                             sample_indices(offset.size(), 12)),
              kTol);
}

TEST(GradCheck, BceLossGradient)
{
    Rng rng(6);
    Param logits(2, 5);
    uniform_init(logits.value, 1.0f, rng);
    const std::vector<std::vector<std::int32_t>> labels = {{0, 3}, {4}};

    auto loss_fn = [&]() {
        Matrix dl;
        return bce_multilabel_loss(logits.value, labels, dl);
    };

    Matrix dl;
    bce_multilabel_loss(logits.value, labels, dl);
    // dl is already batch-mean-normalized: it is d(mean loss)/d(logits).
    logits.grad = dl;

    EXPECT_LT(gradient_check(logits, loss_fn,
                             sample_indices(logits.size(), 10)),
              kTol);
}

TEST(GradCheck, AttentionWeightsAreDistribution)
{
    Rng rng(7);
    MoeAttention attn(5, 1.0f);
    Matrix page(3, 2);
    Matrix offset(3, 10);
    uniform_init(page, 1.0f, rng);
    uniform_init(offset, 1.0f, rng);
    Matrix out;
    attn.forward(page, offset, out);
    const auto &w = attn.weights();
    ASSERT_EQ(w.rows(), 3u);
    ASSERT_EQ(w.cols(), 5u);
    for (std::size_t r = 0; r < 3; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 5; ++c)
            sum += w.at(r, c);
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

}  // namespace
}  // namespace voyager::nn
