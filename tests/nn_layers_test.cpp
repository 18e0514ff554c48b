/**
 * @file
 * Tests for layers (Embedding, Linear, Dropout, losses, Adam,
 * quantize/prune, serialize, LSTM) at the behavioural level, plus
 * bit-for-bit pins of the vectorised Adam update and LSTM backward
 * pass against scalar, per-step references.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/adam.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "reference.hpp"

namespace voyager::nn {
namespace {

TEST(Embedding, GathersRows)
{
    Rng rng(1);
    Embedding e(10, 4, rng);
    Matrix out;
    e.forward({3, 3, 7}, out);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(out.at(0, c), out.at(1, c));
        EXPECT_EQ(out.at(0, c), e.param().value.at(3, c));
    }
}

TEST(Embedding, BackwardAccumulatesTouchedRows)
{
    Rng rng(2);
    Embedding e(10, 2, rng);
    Matrix grad(3, 2, 1.0f);
    e.backward({3, 3, 7}, grad);
    EXPECT_EQ(e.param().grad.at(3, 0), 2.0f);  // row 3 hit twice
    EXPECT_EQ(e.param().grad.at(7, 0), 1.0f);
    EXPECT_EQ(e.param().grad.at(0, 0), 0.0f);
    EXPECT_EQ(e.touched().size(), 2u);
    e.clear_touched();
    EXPECT_TRUE(e.touched().empty());
}

TEST(Linear, ForwardMatchesManual)
{
    Rng rng(3);
    Linear l(2, 2, rng);
    l.weight().value.at(0, 0) = 1.0f;
    l.weight().value.at(0, 1) = 2.0f;
    l.weight().value.at(1, 0) = 3.0f;
    l.weight().value.at(1, 1) = 4.0f;
    l.bias().value.at(0, 0) = 0.5f;
    Matrix x(1, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    Matrix y;
    l.forward(x, y);
    EXPECT_NEAR(y.at(0, 0), 1 * 1 + 2 * 3 + 0.5f, 1e-5f);
    EXPECT_NEAR(y.at(0, 1), 1 * 2 + 2 * 4, 1e-5f);
}

bool
same_bits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Run `f`, expecting std::logic_error whose message names `layer`. */
template <class F>
void
expect_logic_error_naming(F f, const std::string &layer)
{
    try {
        f();
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(layer), std::string::npos)
            << e.what();
    }
}

TEST(Linear, BackwardWithoutForwardThrows)
{
    Rng rng(8);
    Linear lin(3, 2, rng);
    Matrix dy(1, 2, 1.0f);
    Matrix dx;
    expect_logic_error_naming([&] { lin.backward(dy, dx); }, "Linear");
    Matrix x(1, 3, 0.5f);
    Matrix y;
    lin.forward(x, y);
    EXPECT_NO_THROW(lin.backward(dy, dx));
    EXPECT_EQ(dx.rows(), 1u);
    EXPECT_EQ(dx.cols(), 3u);
}

TEST(Dropout, EvalModeIsIdentity)
{
    Dropout d(0.5f, 9);
    d.set_training(false);
    Matrix x(4, 4, 1.0f);
    d.forward(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x.data()[i], 1.0f);
}

TEST(Dropout, TrainModePreservesExpectation)
{
    Dropout d(0.8f, 10);
    Matrix x(100, 100, 1.0f);
    d.forward(x);
    double sum = 0.0;
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sum += x.data()[i];
        zeros += x.data()[i] == 0.0f;
    }
    EXPECT_NEAR(sum / static_cast<double>(x.size()), 1.0, 0.05);
    EXPECT_NEAR(static_cast<double>(zeros) / x.size(), 0.2, 0.03);
}

TEST(Dropout, BackwardUsesSameMask)
{
    Dropout d(0.5f, 11);
    Matrix x(8, 8, 1.0f);
    d.forward(x);
    Matrix g(8, 8, 1.0f);
    d.backward(g);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(g.data()[i], x.data()[i]);
}

TEST(Loss, SoftmaxCeKnownValue)
{
    Matrix logits(1, 3);  // uniform -> loss = log(3)
    std::vector<std::int32_t> labels = {1};
    Matrix dl;
    const double loss = softmax_ce_loss(logits, labels, dl);
    EXPECT_NEAR(loss, std::log(3.0), 1e-5);
    EXPECT_NEAR(dl.at(0, 1), 1.0f / 3.0f - 1.0f, 1e-5f);
    EXPECT_NEAR(dl.at(0, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(Loss, SoftmaxCeGradientSumsToZero)
{
    Rng rng(12);
    Matrix logits(4, 7);
    uniform_init(logits, 2.0f, rng);
    Matrix dl;
    softmax_ce_loss(logits, {0, 3, 6, 2}, dl);
    for (std::size_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 7; ++c)
            sum += dl.at(r, c);
        EXPECT_NEAR(sum, 0.0f, 1e-5f);
    }
}

TEST(Loss, BceMultilabelKnownValue)
{
    Matrix logits(1, 2);  // zeros: sigmoid = 0.5 everywhere
    Matrix dl;
    const double loss = bce_multilabel_loss(logits, {{0}}, dl);
    // loss = -log(0.5) - log(1-0.5) = 2 log 2.
    EXPECT_NEAR(loss, 2.0 * std::log(2.0), 1e-5);
    EXPECT_NEAR(dl.at(0, 0), 0.5f - 1.0f, 1e-5f);
    EXPECT_NEAR(dl.at(0, 1), 0.5f, 1e-5f);
}

TEST(Loss, BceMultiplePositives)
{
    Matrix logits(1, 3);
    Matrix dl;
    bce_multilabel_loss(logits, {{0, 2}}, dl);
    EXPECT_LT(dl.at(0, 0), 0.0f);
    EXPECT_GT(dl.at(0, 1), 0.0f);
    EXPECT_LT(dl.at(0, 2), 0.0f);
}

TEST(Loss, ArgmaxAndTopk)
{
    Matrix m(2, 4);
    m.at(0, 2) = 5.0f;
    m.at(1, 0) = 1.0f;
    m.at(1, 3) = 9.0f;
    const auto am = argmax_rows(m);
    EXPECT_EQ(am[0], 2);
    EXPECT_EQ(am[1], 3);
    const auto top = topk_row(m, 1, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 3);
    EXPECT_EQ(top[1], 0);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize ||w - target||^2 with Adam.
    Param w(1, 4);
    Matrix target(1, 4);
    for (int i = 0; i < 4; ++i)
        target.at(0, static_cast<std::size_t>(i)) =
            static_cast<float>(i) - 1.5f;
    AdamConfig cfg;
    cfg.lr = 0.05;
    cfg.clip_norm = 0.0;
    Adam opt(cfg);
    opt.add_param(&w);
    for (int step = 0; step < 500; ++step) {
        for (std::size_t i = 0; i < 4; ++i)
            w.grad.at(0, i) = 2.0f * (w.value.at(0, i) - target.at(0, i));
        opt.step();
    }
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(w.value.at(0, i), target.at(0, i), 0.02f);
    EXPECT_EQ(opt.steps(), 500u);
}

TEST(Adam, SparseEmbeddingUpdatesOnlyTouchedRows)
{
    Rng rng(13);
    Embedding e(6, 3, rng);
    const auto before = e.param().value;
    Adam opt;
    opt.add_embedding(&e);
    Matrix grad(1, 3, 1.0f);
    e.backward({2}, grad);
    opt.step();
    for (std::size_t r = 0; r < 6; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            if (r == 2)
                EXPECT_NE(e.param().value.at(r, c), before.at(r, c));
            else
                EXPECT_EQ(e.param().value.at(r, c), before.at(r, c));
        }
    }
    // Gradient cleared and touched set reset.
    EXPECT_EQ(e.param().grad.at(2, 0), 0.0f);
    EXPECT_TRUE(e.touched().empty());
}

/**
 * The scalar Adam update Adam::step vectorises: the same per-element
 * expressions over one span, one element at a time.
 */
void
reference_adam_span(float *w, const float *g, float *m, float *v,
                    std::size_t n, float lr_t, float b1, float b2,
                    float eps)
{
    for (std::size_t i = 0; i < n; ++i) {
        m[i] = b1 * m[i] + (1.0f - b1) * g[i];
        v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
        w[i] -= lr_t * m[i] / (std::sqrt(v[i]) + eps);
    }
}

/**
 * Adam::step against a scalar reference, bit for bit, over several
 * steps: two dense parameters and an embedding whose rows (19 wide)
 * are updated only where touched — lengths that are not a multiple of
 * the 16-lane vector, so the vector body and its remainder both run.
 * Clipping off, on and active, and on but inactive (norm below it).
 */
TEST(Adam, StepMatchesScalarReferenceBitForBit)
{
    for (const double clip : {0.0, 1.0, 1e6}) {
        SCOPED_TRACE(::testing::Message() << "clip_norm " << clip);
        Rng rng(29);
        Param a(3, 37);
        Param b(1, 21);
        glorot_init(a.value, rng);
        glorot_init(b.value, rng);
        Embedding emb(50, 19, rng);
        AdamConfig cfg;
        cfg.lr = 0.01;
        cfg.clip_norm = clip;
        Adam opt(cfg);
        opt.add_param(&a);
        opt.add_param(&b);
        opt.add_embedding(&emb);

        // Reference copies of the weights, with their own moments.
        std::vector<Matrix> w = {a.value, b.value, emb.param().value};
        std::vector<Matrix> m;
        std::vector<Matrix> v;
        for (const Matrix &x : w) {
            m.emplace_back(x.rows(), x.cols());
            v.emplace_back(x.rows(), x.cols());
        }
        for (int step = 1; step <= 6; ++step) {
            uniform_init(a.grad, 1.0f, rng);
            uniform_init(b.grad, 1.0f, rng);
            const std::vector<std::int32_t> ids = {
                static_cast<std::int32_t>(rng.next_below(50)),
                static_cast<std::int32_t>(rng.next_below(50)), 7, 7};
            Matrix go(ids.size(), 19);
            uniform_init(go, 1.0f, rng);
            emb.backward(ids, go);

            std::vector<Matrix> g = {a.grad, b.grad, emb.param().grad};
            double total = 0.0;
            for (const Matrix &x : g)
                total += sum_squares(x);
            const double norm = std::sqrt(total);
            if (clip > 0.0 && norm > clip)
                for (Matrix &x : g)
                    scale_inplace(x, static_cast<float>(clip / norm));
            const double bc1 = 1.0 - std::pow(cfg.beta1, step);
            const double bc2 = 1.0 - std::pow(cfg.beta2, step);
            const auto lr_t =
                static_cast<float>(cfg.lr * std::sqrt(bc2) / bc1);
            const auto b1 = static_cast<float>(cfg.beta1);
            const auto b2 = static_cast<float>(cfg.beta2);
            const auto eps = static_cast<float>(cfg.eps);
            for (std::size_t p = 0; p < 2; ++p)
                reference_adam_span(w[p].data(), g[p].data(),
                                    m[p].data(), v[p].data(), w[p].size(),
                                    lr_t, b1, b2, eps);
            for (const std::int32_t r : emb.touched())
                reference_adam_span(w[2].row(r), g[2].row(r), m[2].row(r),
                                    v[2].row(r), 19, lr_t, b1, b2, eps);

            opt.step();
            ASSERT_TRUE(same_bits(a.value, w[0])) << "step " << step;
            ASSERT_TRUE(same_bits(b.value, w[1])) << "step " << step;
            ASSERT_TRUE(same_bits(emb.param().value, w[2]))
                << "step " << step;
            for (const Param *p : {&a, &b, &emb.param()})
                for (std::size_t i = 0; i < p->grad.size(); ++i)
                    ASSERT_EQ(p->grad.data()[i], 0.0f);
        }
    }
}

TEST(Adam, LrDecay)
{
    Adam opt(AdamConfig{1e-3, 0.9, 0.999, 1e-8, 0.0});
    opt.decay_lr(2.0);
    EXPECT_DOUBLE_EQ(opt.lr(), 5e-4);
}

TEST(Quantize, PruneZeroesSmallest)
{
    Matrix m(1, 10);
    for (int i = 0; i < 10; ++i)
        m.data()[i] = static_cast<float>(i + 1);
    magnitude_prune(m, 0.5);
    EXPECT_EQ(nonzero_count(m), 5u);
    EXPECT_EQ(m.data()[9], 10.0f);  // largest survive
    EXPECT_EQ(m.data()[0], 0.0f);
}

TEST(Quantize, PruneZeroIsNoOp)
{
    Matrix m(1, 4, 1.0f);
    magnitude_prune(m, 0.0);
    EXPECT_EQ(nonzero_count(m), 4u);
}

TEST(Quantize, Int8ErrorBounded)
{
    Rng rng(14);
    Matrix m(8, 8);
    uniform_init(m, 1.0f, rng);
    const QuantError err = quantize_dequantize_int8(m);
    // Symmetric per-row grid: error <= scale/2 = max|row|/254 <= 1/254.
    EXPECT_LE(err.max_err, 1.0f / 254.0f + 1e-6f);
    EXPECT_GT(err.max_err, 0.0f);
    EXPECT_LE(err.rms(), err.max_err);
    EXPECT_GT(err.rms(), 0.0);
    EXPECT_EQ(err.elements, 64u);
}

TEST(Quantize, StorageAccounting)
{
    Matrix m(1, 100, 1.0f);
    magnitude_prune(m, 0.8);
    const auto s32 = measure_storage(m, 32);
    EXPECT_EQ(s32.elements, 100u);
    EXPECT_EQ(s32.nonzero, 20u);
    EXPECT_EQ(s32.dense_bytes(), 400u);
    EXPECT_LT(s32.sparse_bytes(), s32.dense_bytes());
    const auto s8 = measure_storage(m, 8);
    EXPECT_LT(s8.sparse_bytes(), s32.sparse_bytes());
}

TEST(Serialize, MatrixRoundTrip)
{
    Rng rng(15);
    Matrix m(3, 5);
    uniform_init(m, 1.0f, rng);
    std::stringstream ss;
    save_matrix(ss, m);
    const Matrix n = load_matrix(ss);
    EXPECT_EQ(n, m);
}

TEST(Serialize, ParamsRoundTripAndValidation)
{
    Rng rng(16);
    Matrix a(2, 2);
    Matrix b(1, 3);
    uniform_init(a, 1.0f, rng);
    uniform_init(b, 1.0f, rng);
    std::stringstream ss;
    save_params(ss, {&a, &b});
    Matrix a2(2, 2);
    Matrix b2(1, 3);
    load_params(ss, {&a2, &b2});
    EXPECT_EQ(a2, a);
    EXPECT_EQ(b2, b);

    std::stringstream ss2;
    save_params(ss2, {&a});
    Matrix wrong(9, 9);
    EXPECT_THROW(load_params(ss2, {&wrong}), std::runtime_error);
}

TEST(Lstm, CacheReuseAcrossShrinkingSequences)
{
    // The forward caches grow but never shrink: running a long
    // sequence and then a shorter one on the same object must give
    // exactly the results of a fresh LSTM with identical weights —
    // stale cached steps beyond the live prefix must not leak into
    // either the forward pass or backward-through-time.
    const std::size_t B = 3;
    const std::size_t in = 4;
    const std::size_t H = 5;
    Rng rng_a(12);
    Rng rng_b(12);
    Lstm reused(in, H, rng_a);
    Lstm fresh(in, H, rng_b);

    Rng data_rng(13);
    std::vector<Matrix> xs_long(6, Matrix(B, in));
    for (auto &x : xs_long)
        uniform_init(x, 1.0f, data_rng);
    std::vector<Matrix> xs_short(3, Matrix(B, in));
    for (auto &x : xs_short)
        uniform_init(x, 1.0f, data_rng);

    // Warm the reused object's caches with the long sequence.
    Matrix h_warm;
    reused.forward(xs_long, h_warm);

    Matrix h_reused;
    Matrix h_fresh;
    reused.forward(xs_short, h_reused);
    fresh.forward(xs_short, h_fresh);
    ASSERT_EQ(h_reused.rows(), B);
    ASSERT_EQ(h_reused.cols(), H);
    for (std::size_t i = 0; i < h_reused.size(); ++i)
        ASSERT_EQ(h_reused.data()[i], h_fresh.data()[i]);

    Matrix dh(B, H);
    uniform_init(dh, 1.0f, data_rng);
    std::vector<Matrix> dxs_reused;
    std::vector<Matrix> dxs_fresh;
    reused.backward(dh, dxs_reused);
    fresh.backward(dh, dxs_fresh);
    ASSERT_EQ(dxs_reused.size(), xs_short.size());
    ASSERT_EQ(dxs_fresh.size(), xs_short.size());
    for (std::size_t t = 0; t < dxs_reused.size(); ++t)
        for (std::size_t i = 0; i < dxs_reused[t].size(); ++i)
            ASSERT_EQ(dxs_reused[t].data()[i], dxs_fresh[t].data()[i]);
    for (std::size_t i = 0; i < reused.wx().grad.size(); ++i)
        ASSERT_EQ(reused.wx().grad.data()[i], fresh.wx().grad.data()[i]);
    for (std::size_t i = 0; i < reused.wh().grad.size(); ++i)
        ASSERT_EQ(reused.wh().grad.data()[i], fresh.wh().grad.data()[i]);
}

TEST(Lstm, BackwardWithoutTrainingForwardThrows)
{
    Rng rng(14);
    Lstm lstm(4, 5, rng);
    Matrix dh(2, 5, 1.0f);
    std::vector<Matrix> dxs;
    expect_logic_error_naming([&] { lstm.backward(dh, dxs); }, "Lstm");

    std::vector<Matrix> xs(3, Matrix(2, 4, 0.25f));
    Matrix h;
    lstm.forward(xs, h);
    EXPECT_NO_THROW(lstm.backward(dh, dxs));
    EXPECT_EQ(dxs.size(), 3u);

    // The inference forward drops the training caches.
    Matrix proj;
    lstm.project_inputs(xs[0], proj);
    StepRows rows;
    rows.batch = 2;
    rows.index = {0, 1, 1, 0};
    lstm.forward_inference(proj, rows, h);
    expect_logic_error_naming([&] { lstm.backward(dh, dxs); }, "Lstm");
}

/** Parameter and input gradients of one backward-through-time. */
struct LstmGrads
{
    Matrix wx, wh, b;
    std::vector<Matrix> dxs;
};

/**
 * Backprop through time the way Lstm::backward ran it per step before
 * it transposed its weights once per call: the forward recomputed
 * with the kernels Lstm::forward uses, then per step the scalar
 * gate-gradient loop and gemm_nt on the untransposed weights.
 */
LstmGrads
reference_lstm_backward(const Lstm &lstm, const std::vector<Matrix> &xs,
                        const Matrix &dh_last)
{
    const std::size_t T = xs.size();
    const std::size_t batch = xs[0].rows();
    const std::size_t h = lstm.hidden();
    const Matrix &wx = lstm.wx().value;
    const Matrix &wh = lstm.wh().value;
    std::vector<Matrix> gates(T);
    std::vector<Matrix> cs(T, Matrix(batch, h));
    std::vector<Matrix> hs(T, Matrix(batch, h));
    for (std::size_t t = 0; t < T; ++t) {
        gates[t] = Matrix(batch, 4 * h);
        gemm_nn(xs[t], wx, gates[t]);
        if (t > 0)
            gemm_nn(hs[t - 1], wh, gates[t]);
        for (std::size_t r = 0; r < batch; ++r)
            lstm_gate_row(gates[t].row(r), lstm.bias().value.data(),
                          t > 0 ? cs[t - 1].row(r) : nullptr,
                          cs[t].row(r), hs[t].row(r), h);
    }

    LstmGrads g{Matrix(wx.rows(), wx.cols()), Matrix(wh.rows(), wh.cols()),
                Matrix(1, 4 * h), std::vector<Matrix>(T)};
    Matrix dh = dh_last;
    Matrix dc(batch, h);
    Matrix dz(batch, 4 * h);
    for (std::size_t t = T; t-- > 0;) {
        Matrix tanh_c = cs[t];
        tanh_inplace(tanh_c);
        for (std::size_t r = 0; r < batch; ++r) {
            const float *zr = gates[t].row(r);
            const float *tcr = tanh_c.row(r);
            const float *cpr = t > 0 ? cs[t - 1].row(r) : nullptr;
            const float *dhr = dh.row(r);
            float *dcr = dc.row(r);
            float *dzr = dz.row(r);
            for (std::size_t j = 0; j < h; ++j) {
                const float gi = zr[j];
                const float gf = zr[h + j];
                const float gg = zr[2 * h + j];
                const float go = zr[3 * h + j];
                const float tc = tcr[j];
                const float d_h = dhr[j];
                const float d_o = d_h * tc;
                float d_c = dcr[j] + d_h * go * (1.0f - tc * tc);
                const float d_i = d_c * gg;
                const float d_f = d_c * (cpr ? cpr[j] : 0.0f);
                const float d_g = d_c * gi;
                dcr[j] = d_c * gf;
                dzr[j] = d_i * gi * (1.0f - gi);
                dzr[h + j] = d_f * gf * (1.0f - gf);
                dzr[2 * h + j] = d_g * (1.0f - gg * gg);
                dzr[3 * h + j] = d_o * go * (1.0f - go);
            }
        }
        gemm_tn(xs[t], dz, g.wx);
        bias_backward(dz, g.b);
        g.dxs[t] = Matrix(batch, wx.rows());
        gemm_nt(dz, wx, g.dxs[t]);
        if (t > 0) {
            gemm_tn(hs[t - 1], dz, g.wh);
            dh = Matrix(batch, h);
            gemm_nt(dz, wh, dh);
        }
    }
    return g;
}

/**
 * Lstm::backward (weights transposed once per call, gemm_nn per step,
 * vectorised gate-gradient rows) against the per-step reference, bit
 * for bit. hidden 8 stays inside one partial vector; 40 runs full
 * vectors plus a remainder; 64 full vectors only. Batch 1 and 7 run
 * the one-row and ragged GEMM tiles, 64 full tiles; T = 1 covers the
 * zero c_{-1} row alone.
 */
TEST(Lstm, BackwardMatchesPerStepReferenceBitForBit)
{
    const std::size_t in = 72;
    for (const std::size_t hidden : {8u, 40u, 64u})
        for (const std::size_t batch : {1u, 7u, 64u})
            for (const std::size_t T : {1u, 8u}) {
                SCOPED_TRACE(::testing::Message()
                             << "hidden " << hidden << " batch " << batch
                             << " T " << T);
                Rng rng(hidden * 1000 + batch * 10 + T);
                Lstm lstm(in, hidden, rng);
                uniform_init(lstm.bias().value, 0.5f, rng);
                std::vector<Matrix> xs(T, Matrix(batch, in));
                for (Matrix &x : xs)
                    uniform_init(x, 1.0f, rng);
                Matrix dh(batch, hidden);
                uniform_init(dh, 1.0f, rng);

                Matrix h_last;
                lstm.forward(xs, h_last);
                std::vector<Matrix> dxs;
                lstm.backward(dh, dxs);
                const LstmGrads ref = reference_lstm_backward(lstm, xs, dh);

                ASSERT_TRUE(same_bits(lstm.wx().grad, ref.wx));
                ASSERT_TRUE(same_bits(lstm.wh().grad, ref.wh));
                ASSERT_TRUE(same_bits(lstm.bias().grad, ref.b));
                ASSERT_EQ(dxs.size(), T);
                for (std::size_t t = 0; t < T; ++t)
                    ASSERT_TRUE(same_bits(dxs[t], ref.dxs[t]))
                        << "dxs[" << t << "]";
            }
}

}  // namespace
}  // namespace voyager::nn
