/**
 * @file
 * Round-trip tests for nn/serialize: save -> load must reproduce
 * matrices bit-exactly and reloaded models must produce identical
 * forward outputs; malformed streams must throw.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "nn/adam.hpp"
#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/serialize.hpp"
#include "util/random.hpp"

namespace voyager::nn {
namespace {

TEST(Serialize, MatrixRoundTripBitExact)
{
    Rng rng(1);
    Matrix m(7, 5);
    uniform_init(m, 1.0f, rng);
    m.at(3, 2) = -0.0f;
    m.at(0, 0) = 1e-30f;

    std::stringstream ss;
    save_matrix(ss, m);
    const Matrix back = load_matrix(ss);

    ASSERT_EQ(back.rows(), m.rows());
    ASSERT_EQ(back.cols(), m.cols());
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(back.data()[i], m.data()[i]);
}

TEST(Serialize, BadMagicThrows)
{
    std::stringstream ss;
    ss << "not a matrix";
    EXPECT_THROW(load_matrix(ss), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows)
{
    Rng rng(2);
    Matrix m(4, 4);
    uniform_init(m, 1.0f, rng);
    std::stringstream ss;
    save_matrix(ss, m);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() - 8));
    EXPECT_THROW(load_matrix(cut), std::runtime_error);
}

TEST(Serialize, ParamsRoundTrip)
{
    Rng rng(3);
    Matrix a(3, 4);
    Matrix b(1, 4);
    uniform_init(a, 1.0f, rng);
    uniform_init(b, 1.0f, rng);

    std::stringstream ss;
    save_params(ss, {&a, &b});

    Matrix a2(3, 4);
    Matrix b2(1, 4);
    load_params(ss, {&a2, &b2});
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a2.data()[i], a.data()[i]);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b2.data()[i], b.data()[i]);
}

TEST(Serialize, ParamCountMismatchThrows)
{
    Rng rng(4);
    Matrix a(2, 2);
    uniform_init(a, 1.0f, rng);
    std::stringstream ss;
    save_params(ss, {&a});
    Matrix a2(2, 2);
    Matrix b2(2, 2);
    EXPECT_THROW(load_params(ss, {&a2, &b2}), std::runtime_error);
}

TEST(Serialize, ParamShapeMismatchThrows)
{
    Rng rng(5);
    Matrix a(2, 3);
    uniform_init(a, 1.0f, rng);
    std::stringstream ss;
    save_params(ss, {&a});
    Matrix wrong(3, 2);
    EXPECT_THROW(load_params(ss, {&wrong}), std::runtime_error);
}

TEST(Serialize, LinearReloadIdenticalForward)
{
    Rng rng(6);
    Linear layer(8, 6, rng);
    Matrix x(4, 8);
    uniform_init(x, 1.0f, rng);
    Matrix y;
    layer.forward(x, y);

    std::stringstream ss;
    save_params(ss, {&layer.weight().value, &layer.bias().value});

    Rng rng2(999);  // deliberately different init
    Linear fresh(8, 6, rng2);
    load_params(ss, {&fresh.weight().value, &fresh.bias().value});
    Matrix y2;
    fresh.forward(x, y2);

    ASSERT_EQ(y2.rows(), y.rows());
    ASSERT_EQ(y2.cols(), y.cols());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y2.data()[i], y.data()[i]);
}

TEST(Serialize, LstmReloadIdenticalForward)
{
    Rng rng(7);
    Lstm lstm(6, 10, rng);
    std::vector<Matrix> xs(5, Matrix(3, 6));
    for (auto &x : xs)
        uniform_init(x, 1.0f, rng);
    Matrix h;
    lstm.forward(xs, h);

    std::stringstream ss;
    save_params(ss, {&lstm.wx().value, &lstm.wh().value,
                     &lstm.bias().value});

    Rng rng2(12345);
    Lstm fresh(6, 10, rng2);
    load_params(ss, {&fresh.wx().value, &fresh.wh().value,
                     &fresh.bias().value});
    Matrix h2;
    fresh.forward(xs, h2);

    ASSERT_EQ(h2.rows(), h.rows());
    ASSERT_EQ(h2.cols(), h.cols());
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_EQ(h2.data()[i], h.data()[i]);
}

TEST(Serialize, RngStateRoundTripContinuesStream)
{
    Rng rng(17);
    rng.next_u64();
    rng.next_gaussian();  // leaves a Box-Muller spare pending

    std::stringstream ss;
    save_rng_state(ss, rng.state());
    Rng restored(999);
    restored.set_state(load_rng_state(ss));

    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(restored.next_u64(), rng.next_u64());
        EXPECT_EQ(restored.next_gaussian(), rng.next_gaussian());
    }
}

TEST(Serialize, DropoutStateRoundTripDrawsIdenticalMasks)
{
    Rng rng(3);
    Dropout d(0.7f, 11);
    Matrix warm(4, 6);
    uniform_init(warm, 1.0f, rng);
    d.forward(warm);  // advance the mask stream

    std::stringstream ss;
    d.save_state(ss);
    Dropout restored(0.7f, 999);  // different seed, state overrides
    restored.load_state(ss);

    Matrix a(5, 8);
    uniform_init(a, 1.0f, rng);
    Matrix b = a;
    d.forward(a);
    restored.forward(b);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Serialize, DropoutKeepMismatchThrows)
{
    Dropout d(0.7f, 11);
    std::stringstream ss;
    d.save_state(ss);
    Dropout other(0.5f, 11);
    EXPECT_THROW(other.load_state(ss), std::runtime_error);
}

/**
 * A little training rig covering every registered-parameter type:
 * an Embedding (sparse Adam state), plus Linear and LSTM parameters
 * (dense Adam state).
 */
struct AdamRig
{
    Rng rng;
    Embedding emb;
    Linear lin;
    Lstm lstm;
    Adam opt;

    explicit AdamRig(std::uint64_t seed)
        : rng(seed), emb(12, 4, rng), lin(4, 3, rng), lstm(4, 4, rng),
          opt(AdamConfig{1e-2})
    {
        opt.add_embedding(&emb);
        opt.add_param(&lin.weight());
        opt.add_param(&lin.bias());
        opt.add_param(&lstm.wx());
        opt.add_param(&lstm.wh());
        opt.add_param(&lstm.bias());
    }

    /** One deterministic fake training step touching everything. */
    void
    step(std::uint64_t salt)
    {
        Rng g(salt);
        const std::vector<std::int32_t> ids = {
            static_cast<std::int32_t>(salt % 12), 3, 7};
        Matrix grad(ids.size(), emb.dim());
        uniform_init(grad, 0.5f, g);
        emb.backward(ids, grad);
        uniform_init(lin.weight().grad, 0.5f, g);
        uniform_init(lin.bias().grad, 0.5f, g);
        uniform_init(lstm.wx().grad, 0.5f, g);
        uniform_init(lstm.wh().grad, 0.5f, g);
        uniform_init(lstm.bias().grad, 0.5f, g);
        opt.step();
    }

    /** Every parameter value, flattened. */
    std::vector<float>
    flat() const
    {
        std::vector<float> out;
        for (const Matrix *m :
             {&emb.param().value, &lin.weight().value,
              &lin.bias().value, &lstm.wx().value, &lstm.wh().value,
              &lstm.bias().value})
            out.insert(out.end(), m->data(), m->data() + m->size());
        return out;
    }
};

TEST(Serialize, AdamStateRoundTripAllLayerTypes)
{
    AdamRig a(21);
    for (std::uint64_t s = 0; s < 5; ++s)
        a.step(s);
    a.opt.decay_lr(2.0);  // move the LR-decay schedule position

    std::stringstream layers;
    a.emb.save_state(layers);
    a.lin.save_state(layers);
    a.lstm.save_state(layers);
    std::stringstream optimizer;
    a.opt.save_state(optimizer);

    AdamRig b(999);  // different init everywhere
    b.emb.load_state(layers);
    b.lin.load_state(layers);
    b.lstm.load_state(layers);
    b.opt.load_state(optimizer);

    EXPECT_EQ(b.opt.steps(), a.opt.steps());
    EXPECT_EQ(b.opt.lr(), a.opt.lr());
    EXPECT_EQ(b.flat(), a.flat());

    // The restored moments must drive bit-identical future updates —
    // the property checkpoint/resume equivalence rests on.
    for (std::uint64_t s = 5; s < 8; ++s) {
        a.step(s);
        b.step(s);
        EXPECT_EQ(b.flat(), a.flat()) << "diverged at step " << s;
    }
}

TEST(Serialize, AdamMomentShapeMismatchThrows)
{
    AdamRig a(4);
    a.step(0);
    std::stringstream ss;
    a.opt.save_state(ss);

    // A differently shaped registration layout must be rejected.
    Rng rng(5);
    Linear lin(6, 2, rng);
    Adam other;
    other.add_param(&lin.weight());
    other.add_param(&lin.bias());
    EXPECT_THROW(other.load_state(ss), std::runtime_error);
}

TEST(Serialize, AdamTruncatedStateThrows)
{
    AdamRig a(6);
    a.step(0);
    std::stringstream ss;
    a.opt.save_state(ss);
    const std::string full = ss.str();
    AdamRig b(6);
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(b.opt.load_state(cut), std::runtime_error);
}

}  // namespace
}  // namespace voyager::nn
