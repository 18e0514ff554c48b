/**
 * @file
 * Tests for the dense kernels: GEMM variants against naive reference,
 * softmax/sigmoid/tanh, bias ops, gradient clipping and the
 * vectorised LSTM gate kernel against its libm reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/ops.hpp"
#include "reference.hpp"
#include "util/random.hpp"

namespace voyager::nn {
namespace {

Matrix
random_matrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = rng.next_float() * 2.0f - 1.0f;
    return m;
}

Matrix
naive_gemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, j);
            c.at(i, j) = acc;
        }
    return c;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            t.at(j, i) = m.at(i, j);
    return t;
}

void
expect_close(const Matrix &a, const Matrix &b, float tol = 1e-4f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], tol);
}

TEST(Matrix, BasicsAndReshape)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_EQ(m.at(1, 2), 1.5f);
    m.reshape(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    m.zero();
    EXPECT_EQ(m.at(0, 0), 0.0f);
    m.resize(1, 4);
    EXPECT_EQ(m.size(), 4u);
}

TEST(Ops, GemmNnMatchesNaive)
{
    Rng rng(1);
    const auto a = random_matrix(5, 7, rng);
    const auto b = random_matrix(7, 3, rng);
    Matrix c(5, 3);
    gemm_nn(a, b, c);
    expect_close(c, naive_gemm(a, b));
}

TEST(Ops, GemmNnAccumulates)
{
    Rng rng(2);
    const auto a = random_matrix(2, 2, rng);
    const auto b = random_matrix(2, 2, rng);
    Matrix c(2, 2, 1.0f);
    gemm_nn(a, b, c);
    auto expect = naive_gemm(a, b);
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmTnAccumulates)
{
    Rng rng(21);
    const auto a = random_matrix(3, 2, rng);  // (k, m)
    const auto b = random_matrix(3, 4, rng);  // (k, n)
    Matrix c(2, 4, 1.0f);
    gemm_tn(a, b, c);
    auto expect = naive_gemm(transpose(a), b);
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmNtAccumulates)
{
    Rng rng(22);
    const auto a = random_matrix(2, 3, rng);  // (m, k)
    const auto b = random_matrix(4, 3, rng);  // (n, k)
    Matrix c(2, 4, 1.0f);
    gemm_nt(a, b, c);
    auto expect = naive_gemm(a, transpose(b));
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect.data()[i] += 1.0f;
    expect_close(c, expect);
}

TEST(Ops, GemmTnMatchesNaive)
{
    Rng rng(3);
    const auto a = random_matrix(6, 4, rng);  // (k, m)
    const auto b = random_matrix(6, 5, rng);  // (k, n)
    Matrix c(4, 5);
    gemm_tn(a, b, c);
    expect_close(c, naive_gemm(transpose(a), b));
}

TEST(Ops, GemmNtMatchesNaive)
{
    Rng rng(4);
    const auto a = random_matrix(3, 6, rng);  // (m, k)
    const auto b = random_matrix(5, 6, rng);  // (n, k)
    Matrix c(3, 5);
    gemm_nt(a, b, c);
    expect_close(c, naive_gemm(a, transpose(b)));
}

/** Relative-error comparison for kernels on larger problems. */
void
expect_rel_close(const Matrix &a, const Matrix &b, float rel = 1e-4f)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float mag = std::max(std::abs(b.data()[i]), 1.0f);
        ASSERT_NEAR(a.data()[i], b.data()[i], rel * mag)
            << "at flat index " << i;
    }
}

/**
 * The packed microkernel must agree with the retained naive reference
 * on shapes that are not multiples of the register tile (MR=8, NR=32):
 * degenerate dims, odd primes, one-off-a-tile and one-past-a-tile.
 * C is seeded with random values so accumulation is exercised too.
 */
TEST(Ops, GemmKernelsMatchReferenceOnOddShapes)
{
    const std::size_t dims[] = {1, 3, 17, 31, 33, 64};
    Rng rng(42);
    for (const std::size_t m : dims)
        for (const std::size_t n : dims)
            for (const std::size_t k : dims) {
                const auto a = random_matrix(m, k, rng);
                const auto b = random_matrix(k, n, rng);
                const auto at = transpose(a);
                const auto bt = transpose(b);
                const auto c0 = random_matrix(m, n, rng);

                Matrix c = c0;
                Matrix ref = c0;
                gemm_nn(a, b, c);
                gemm_nn_ref(a, b, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "nn m=" << m << " n=" << n << " k=" << k;

                c = c0;
                ref = c0;
                gemm_tn(at, b, c);
                gemm_tn_ref(at, b, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "tn m=" << m << " n=" << n << " k=" << k;

                c = c0;
                ref = c0;
                gemm_nt(a, bt, c);
                gemm_nt_ref(a, bt, ref);
                ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref))
                    << "nt m=" << m << " n=" << n << " k=" << k;
            }
}

enum class GemmVariant
{
    Nn,
    Tn,
    Nt
};

/** c += A B through `v`, from the logical A (m,k) and B (k,n). */
void
run_gemm(GemmVariant v, bool ref, const Matrix &a, const Matrix &b,
         Matrix &c)
{
    switch (v) {
      case GemmVariant::Nn:
        (ref ? gemm_nn_ref : gemm_nn)(a, b, c);
        break;
      case GemmVariant::Tn:
        (ref ? gemm_tn_ref : gemm_tn)(transpose(a), b, c);
        break;
      case GemmVariant::Nt:
        (ref ? gemm_nt_ref : gemm_nt)(a, transpose(b), c);
        break;
    }
}

/** The rows idx[0], idx[1], ... of m, in that order. */
Matrix
select_rows(const Matrix &m, const std::vector<std::size_t> &idx)
{
    Matrix out(idx.size(), m.cols());
    for (std::size_t i = 0; i < idx.size(); ++i)
        std::copy(m.row(idx[i]), m.row(idx[i]) + m.cols(), out.row(i));
    return out;
}

bool
same_bits(const float *x, const float *y, std::size_t n)
{
    return std::memcmp(x, y, n * sizeof(float)) == 0;
}

/**
 * The row-invariance contract (ops.hpp) the deduplicated LSTM input
 * projection relies on: every output row of gemm_nn/tn/nt is
 * bit-identical whether computed alone (m = 1, the one-row tile), in
 * the full batch (MR-row tiles, ragged edges) or at another position
 * of a row-permuted batch. m covers every MR-tile remainder; n covers
 * the NR and wide one-row tiles and their ragged edges. C starts
 * random so the accumulate is exercised too.
 */
TEST(Ops, GemmRowsAreBatchInvariant)
{
    const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33};
    const std::size_t ks[] = {1, 7, 64, 65};
    const std::size_t ns[] = {5, 32, 33, 128, 257};
    const GemmVariant variants[] = {GemmVariant::Nn, GemmVariant::Tn,
                                    GemmVariant::Nt};
    Rng rng(1234);
    for (const std::size_t m : ms)
        for (const std::size_t k : ks)
            for (const std::size_t n : ns)
                for (const GemmVariant v : variants) {
                    SCOPED_TRACE(::testing::Message()
                                 << "variant " << static_cast<int>(v)
                                 << " m=" << m << " k=" << k
                                 << " n=" << n);
                    const auto a = random_matrix(m, k, rng);
                    const auto b = random_matrix(k, n, rng);
                    const auto c0 = random_matrix(m, n, rng);
                    Matrix c = c0;
                    Matrix ref = c0;
                    run_gemm(v, false, a, b, c);
                    run_gemm(v, true, a, b, ref);
                    ASSERT_NO_FATAL_FAILURE(expect_rel_close(c, ref));

                    for (std::size_t i = 0; i < m; ++i) {
                        Matrix ci = select_rows(c0, {i});
                        run_gemm(v, false, select_rows(a, {i}), b, ci);
                        ASSERT_TRUE(same_bits(ci.row(0), c.row(i), n))
                            << "row " << i << " alone";
                    }

                    std::vector<std::size_t> perm(m);
                    for (std::size_t i = 0; i < m; ++i)
                        perm[i] = i;
                    for (std::size_t i = m; i > 1; --i)
                        std::swap(perm[i - 1], perm[rng.next_below(i)]);
                    Matrix cp = select_rows(c0, perm);
                    run_gemm(v, false, select_rows(a, perm), b, cp);
                    for (std::size_t i = 0; i < m; ++i)
                        ASSERT_TRUE(
                            same_bits(cp.row(i), c.row(perm[i]), n))
                            << "row " << perm[i] << " at position " << i;
                }
}

/**
 * The layout-invariance contract (ops.hpp) Lstm::backward relies on:
 * gemm_nn on a materialised B^T has the bits of gemm_nt on B, and
 * gemm_tn on a materialised A^T the bits of gemm_nn on A — in-place
 * and packed operands feed the microkernel the same values in the
 * same order. m covers every MR-tile remainder and the one-row tile;
 * n covers NR panels, ragged edges, the wide one-row tile and the
 * LSTM shapes (72 = in_dim, 276 = a page head); k the LSTM widths.
 * C starts random so the accumulate is exercised too.
 */
TEST(Ops, GemmOperandLayoutDoesNotChangeBits)
{
    const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64};
    const std::size_t ns[] = {8, 20, 32, 64, 72, 276};
    const std::size_t ks[] = {1, 64, 72, 256};
    Rng rng(4321);
    for (const std::size_t m : ms)
        for (const std::size_t n : ns)
            for (const std::size_t k : ks) {
                SCOPED_TRACE(::testing::Message()
                             << "m=" << m << " n=" << n << " k=" << k);
                const auto a = random_matrix(m, k, rng);
                const auto b = random_matrix(n, k, rng);  // B: (n, k)
                const auto c0 = random_matrix(m, n, rng);
                Matrix c_nt = c0;
                gemm_nt(a, b, c_nt);
                const Matrix bt = transpose(b);
                Matrix c_nn = c0;
                gemm_nn(a, bt, c_nn);
                ASSERT_TRUE(same_bits(c_nn.data(), c_nt.data(), m * n))
                    << "gemm_nn(A, B^T) vs gemm_nt(A, B)";
                Matrix c_tn = c0;
                gemm_tn(transpose(a), bt, c_tn);
                ASSERT_TRUE(same_bits(c_tn.data(), c_nn.data(), m * n))
                    << "gemm_tn(A^T, B^T) vs gemm_nn(A, B^T)";
            }
}

TEST(Ops, AddScale)
{
    Matrix y(1, 3);
    Matrix x(1, 3);
    for (int i = 0; i < 3; ++i) {
        y.data()[i] = static_cast<float>(i);
        x.data()[i] = 1.0f;
    }
    add_inplace(y, x);
    EXPECT_EQ(y.at(0, 2), 3.0f);
    scale_inplace(y, 0.5f);
    EXPECT_EQ(y.at(0, 2), 1.5f);
}

TEST(Ops, BiasForwardBackward)
{
    Matrix y(2, 3);
    Matrix bias(1, 3);
    bias.at(0, 1) = 5.0f;
    add_bias(y, bias);
    EXPECT_EQ(y.at(0, 1), 5.0f);
    EXPECT_EQ(y.at(1, 1), 5.0f);

    Matrix dy(2, 3, 1.0f);
    Matrix db(1, 3);
    bias_backward(dy, db);
    EXPECT_EQ(db.at(0, 0), 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(5);
    auto m = random_matrix(4, 9, rng);
    scale_inplace(m, 10.0f);  // exercise stabilization
    softmax_rows(m);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            sum += m.at(r, c);
            ASSERT_GE(m.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxHandlesExtremeLogits)
{
    Matrix m(1, 3);
    m.at(0, 0) = 1000.0f;
    m.at(0, 1) = -1000.0f;
    m.at(0, 2) = 999.0f;
    softmax_rows(m);
    EXPECT_FALSE(std::isnan(m.at(0, 0)));
    EXPECT_GT(m.at(0, 0), m.at(0, 2));
    EXPECT_NEAR(m.at(0, 1), 0.0f, 1e-6f);
}

TEST(Ops, SigmoidAndTanh)
{
    Matrix m(1, 2);
    m.at(0, 0) = 0.0f;
    m.at(0, 1) = 100.0f;
    auto t = m;
    sigmoid_inplace(m);
    EXPECT_NEAR(m.at(0, 0), 0.5f, 1e-6f);
    EXPECT_NEAR(m.at(0, 1), 1.0f, 1e-6f);
    tanh_inplace(t);
    EXPECT_NEAR(t.at(0, 0), 0.0f, 1e-6f);
    EXPECT_NEAR(t.at(0, 1), 1.0f, 1e-6f);
}

TEST(Ops, SumSquares)
{
    Matrix m(1, 3);
    m.at(0, 0) = 3.0f;
    m.at(0, 1) = 4.0f;
    EXPECT_DOUBLE_EQ(sum_squares(m), 25.0);
}

// ---------------------------------------------------------------------
// Vectorised LSTM gate kernel against its libm reference and a
// double-precision reference (DESIGN.md design decision 10).
// ---------------------------------------------------------------------

/** Inputs and outputs of one gate pass over a single row. */
struct GateRow
{
    std::vector<float> z, bias, c_prev, c, h;

    explicit GateRow(std::size_t hidden)
        : z(4 * hidden), bias(4 * hidden), c_prev(hidden), c(hidden),
          h(hidden)
    {
    }

    void
    run(bool kernel, bool with_c_prev)
    {
        const float *cp = with_c_prev ? c_prev.data() : nullptr;
        const auto gate = kernel ? lstm_gate_row : lstm_gate_row_ref;
        gate(z.data(), bias.data(), cp, c.data(), h.data(), c.size());
    }
};

void
fill_uniform(std::vector<float> &v, float scale, Rng &rng)
{
    for (float &x : v)
        x = (rng.next_float() * 2.0f - 1.0f) * scale;
}

TEST(LstmGate, MatchesLibmReference)
{
    Rng rng(29);
    float worst = 0.0f;
    for (const std::size_t hidden : {1, 7, 15, 16, 17, 64, 100}) {
        for (int row = 0; row < 8; ++row) {
            for (const bool with_c_prev : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "hidden " << hidden << " row " << row
                             << " c_prev " << with_c_prev);
                GateRow in(hidden);
                fill_uniform(in.z, 6.0f, rng);
                fill_uniform(in.bias, 1.0f, rng);
                fill_uniform(in.c_prev, 1.0f, rng);
                GateRow ref = in;
                in.run(true, with_c_prev);
                ref.run(false, with_c_prev);
                const auto check = [&worst](const std::vector<float> &a,
                                            const std::vector<float> &b) {
                    for (std::size_t j = 0; j < a.size(); ++j) {
                        ASSERT_NEAR(a[j], b[j], 2e-7f) << "index " << j;
                        worst = std::max(worst, std::fabs(a[j] - b[j]));
                    }
                };
                check(in.z, ref.z);
                check(in.c, ref.c);
                check(in.h, ref.h);
            }
        }
    }
    std::ostringstream os;
    os << worst;
    RecordProperty("max_abs_error", os.str());
}

TEST(LstmGate, SigmoidAndTanhMatchDoublePrecision)
{
    // Dense sweep over [-40, 40]: the i gate carries sigmoid(x), the
    // g gate tanh(x) (zero bias, c_{-1} = 0). The odd length also
    // runs the zero-padded tail block.
    const std::size_t n = 400001;
    GateRow row(n);
    for (std::size_t j = 0; j < n; ++j) {
        const float x = -40.0f + 80.0f * static_cast<float>(j) /
                                     static_cast<float>(n - 1);
        row.z[j] = x;
        row.z[2 * n + j] = x;
    }
    const std::vector<float> xs(row.z.begin(), row.z.begin() + n);
    row.run(true, false);
    Matrix t(1, n);
    std::copy(xs.begin(), xs.end(), t.data());
    tanh_inplace(t);
    double sig_err = 0.0;
    double tanh_err = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const double x = xs[j];
        const double sig = 1.0 / (1.0 + std::exp(-x));
        sig_err = std::max(sig_err, std::fabs(row.z[j] - sig));
        tanh_err = std::max(tanh_err,
                            std::fabs(row.z[2 * n + j] - std::tanh(x)));
        ASSERT_EQ(row.z[2 * n + j], t.data()[j]) << "x = " << x;
    }
    EXPECT_LE(sig_err, 2e-7);
    EXPECT_LE(tanh_err, 2e-7);
}

TEST(LstmGate, NanPropagates)
{
    // The serve ladder falls through on non-finite logits; a NaN
    // reaching any gate or the previous cell state must not be
    // laundered into a finite hidden state.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t slot = 0; slot < 5; ++slot) {
        SCOPED_TRACE(testing::Message() << "slot " << slot);
        GateRow row(3);
        std::fill(row.c_prev.begin(), row.c_prev.end(), 0.5f);
        if (slot < 4)
            row.z[slot * 3 + 1] = nan;
        else
            row.c_prev[1] = nan;
        row.run(true, true);
        if (slot < 4) {
            EXPECT_TRUE(std::isnan(row.z[slot * 3 + 1]));
        }
        if (slot != 3) {  // a NaN output gate leaves c finite
            EXPECT_TRUE(std::isnan(row.c[1]));
        }
        EXPECT_TRUE(std::isnan(row.h[1]));
        EXPECT_FALSE(std::isnan(row.h[0]));
        EXPECT_FALSE(std::isnan(row.h[2]));
    }
    Matrix t(1, 1, nan);
    tanh_inplace(t);
    EXPECT_TRUE(std::isnan(t.at(0, 0)));
}

TEST(LstmGate, InfinitiesSaturate)
{
    const float inf = std::numeric_limits<float>::infinity();
    GateRow row(2);
    for (std::size_t k = 0; k < 4; ++k) {
        row.z[2 * k] = inf;
        row.z[2 * k + 1] = -inf;
    }
    row.run(true, false);
    EXPECT_EQ(row.z[0], 1.0f);   // sigmoid(+inf)
    EXPECT_EQ(row.z[1], 0.0f);   // sigmoid(-inf)
    EXPECT_EQ(row.z[4], 1.0f);   // tanh(+inf)
    EXPECT_EQ(row.z[5], -1.0f);  // tanh(-inf)
    EXPECT_EQ(row.c[0], 1.0f);
    EXPECT_EQ(row.c[1], 0.0f);
    EXPECT_FLOAT_EQ(row.h[0], std::tanh(1.0f));
    EXPECT_EQ(row.h[1], 0.0f);
    Matrix t(1, 2);
    t.at(0, 0) = inf;
    t.at(0, 1) = -inf;
    tanh_inplace(t);
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(0, 1), -1.0f);
}

TEST(LstmGate, TailLanesMatchFullBlockBitForBit)
{
    // hidden 17: column 0 runs in the full 16-lane block, column 16
    // in the zero-padded tail block.
    const std::size_t hidden = 17;
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        GateRow row(hidden);
        fill_uniform(row.z, 8.0f, rng);
        fill_uniform(row.bias, 1.0f, rng);
        fill_uniform(row.c_prev, 2.0f, rng);
        for (std::size_t k = 0; k < 4; ++k) {
            row.z[k * hidden + 16] = row.z[k * hidden];
            row.bias[k * hidden + 16] = row.bias[k * hidden];
        }
        row.c_prev[16] = row.c_prev[0];
        row.run(true, true);
        for (std::size_t k = 0; k < 4; ++k)
            ASSERT_EQ(row.z[k * hidden + 16], row.z[k * hidden]);
        ASSERT_EQ(row.c[16], row.c[0]);
        ASSERT_EQ(row.h[16], row.h[0]);
    }
}

}  // namespace
}  // namespace voyager::nn
