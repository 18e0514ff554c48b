/**
 * @file
 * Int8 kernel tests (DESIGN.md §5.13): TensorStorage ceil-div
 * accounting, activation/weight quantization invariants, the
 * vectorised activation quantizer byte for byte against the scalar
 * oracle (reference.hpp) on every row length to 100 and on
 * non-finite, signed-zero and extreme rows, QMatrix round trips, and
 * qgemm-vs-reference-vs-fp32 equivalence at odd shapes — including
 * int32 accumulation at saturating magnitudes near the asserted k
 * bound (run under ASan/UBSan by the CI gates) and a non-finite
 * activation row poisoning only its own outputs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/qmatrix.hpp"
#include "nn/qops.hpp"
#include "nn/quantize.hpp"
#include "reference.hpp"
#include "util/random.hpp"

namespace voyager::nn {
namespace {

Matrix
random_matrix(std::size_t r, std::size_t c, float scale,
              std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    uniform_init(m, scale, rng);
    return m;
}

TEST(TensorStorageTest, CeilDivBillsPartialBytes)
{
    // 9 int8 values + a 9-bit presence bitmap: the trailing partial
    // byte of each term must be billed (the seed truncated both).
    TensorStorage s;
    s.elements = 9;
    s.nonzero = 3;
    s.bits_per_weight = 8;
    EXPECT_EQ(s.dense_bytes(), 9u);
    EXPECT_EQ(s.sparse_bytes(), 3u + 2u);

    s.bits_per_weight = 32;
    EXPECT_EQ(s.dense_bytes(), 36u);
    EXPECT_EQ(s.sparse_bytes(), 12u + 2u);

    // Sub-byte precision: 9 x 4-bit = 4.5 bytes -> 5.
    s.bits_per_weight = 4;
    EXPECT_EQ(s.dense_bytes(), 5u);
    EXPECT_EQ(s.sparse_bytes(), 2u + 2u);

    // A single element still occupies one whole byte of bitmap.
    TensorStorage one;
    one.elements = 1;
    one.nonzero = 1;
    one.bits_per_weight = 8;
    EXPECT_EQ(one.dense_bytes(), 1u);
    EXPECT_EQ(one.sparse_bytes(), 2u);
}

TEST(QuantizeActivationsTest, ZeroIsOnTheGridAndErrorBounded)
{
    const Matrix x = random_matrix(5, 13, 2.0f, 21);
    QActivations qa;
    quantize_activations(x, qa);
    ASSERT_EQ(qa.rows, 5u);
    ASSERT_EQ(qa.cols, 13u);
    EXPECT_EQ(qa.stride, 16u);  // rounded to a multiple of 4
    // Per-row grid: zero dequantizes exactly to zero (q == zp).
    // Elementwise: |deq - x| <= scale (clamp at the range ends can
    // cost up to one extra half-step beyond the usual scale/2).
    for (std::size_t r = 0; r < qa.rows; ++r) {
        EXPECT_GE(qa.zero_point(r), 0);
        EXPECT_LE(qa.zero_point(r), 255);
        for (std::size_t c = 0; c < qa.cols; ++c) {
            const float deq =
                (static_cast<std::int32_t>(qa.row(r)[c]) -
                 qa.zero_point(r)) *
                qa.scale(r);
            EXPECT_NEAR(deq, x.at(r, c), qa.scale(r));
        }
        // Padding bytes are 0, not the zero point: they pair with
        // zero weight bytes in the packed panels.
        for (std::size_t c = qa.cols; c < qa.stride; ++c)
            EXPECT_EQ(qa.row(r)[c], 0);
    }

    const Matrix zeros(3, 7);
    quantize_activations(zeros, qa);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(qa.zero_point(r), 0);
    for (std::size_t i = 0; i < qa.q.size(); ++i)
        EXPECT_EQ(qa.q[i], 0);
}

/** got and want hold the same bytes, scales (bit for bit) and zps. */
void
expect_same_qactivations(const QActivations &got, const QActivations &want,
                         const std::string &what)
{
    ASSERT_EQ(got.rows, want.rows) << what;
    ASSERT_EQ(got.cols, want.cols) << what;
    ASSERT_EQ(got.stride, want.stride) << what;
    EXPECT_EQ(got.q, want.q) << what;
    ASSERT_EQ(got.scales.size(), want.scales.size()) << what;
    EXPECT_EQ(std::memcmp(got.scales.data(), want.scales.data(),
                          got.scales.size() * sizeof(float)),
              0)
        << what;
    EXPECT_EQ(got.zero_points, want.zero_points) << what;
}

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::size_t kRowKinds = 13;

/**
 * Fill one row of length k with row kind `kind` (< kRowKinds): random
 * signs, all positive, all negative, all +0.0, all -0.0, one non-zero
 * value, -0.0 among positives, 1e30 magnitudes, one NaN, one +inf,
 * one -inf, the extreme in the last column, and a NaN in the last
 * column. Magnitudes span 1e-3 to 1e3 across rows.
 */
void
fill_row(float *row, std::size_t k, std::size_t kind, Rng &rng)
{
    const double mag = std::pow(10.0, 6.0 * rng.next_double() - 3.0);
    const auto draw = [&](double lo, double hi) {
        return static_cast<float>((lo + (hi - lo) * rng.next_double()) *
                                  mag);
    };
    const std::size_t at = rng.next_below(k);
    for (std::size_t j = 0; j < k; ++j)
        row[j] = kind == 1 ? draw(0.0, 1.0) : kind == 2 ? draw(-1.0, 0.0)
                                                        : draw(-1.0, 1.0);
    switch (kind) {
    case 3:
    case 4:
    case 5:
        for (std::size_t j = 0; j < k; ++j)
            row[j] = kind == 4 ? -0.0f : 0.0f;
        if (kind == 5)
            row[at] = draw(-1.0, 1.0);
        break;
    case 6:
        for (std::size_t j = 0; j < k; ++j)
            row[j] = j % 3 == 0 ? -0.0f : std::fabs(row[j]);
        break;
    case 7:
        for (std::size_t j = 0; j < k; ++j)
            row[j] *= 1e30f / static_cast<float>(mag);
        break;
    case 8:
        row[at] = kNaN;
        break;
    case 9:
        row[at] = kInf;
        break;
    case 10:
        row[at] = -kInf;
        break;
    case 11:
        row[k - 1] = draw(-4.0, -2.0);
        break;
    case 12:
        row[k - 1] = kNaN;
        break;
    default:
        break;
    }
}

TEST(QuantizeActivationsTest, MatchesScalarOracleByteForByte)
{
    // Every row length to 100 covers whole vectors, the scalar tail
    // and rows shorter than one vector; row r of a k-column matrix is
    // kind (r + k) % kRowKinds, so the 65-row matrices hold every kind
    // at every length.
    Rng rng(23);
    QActivations got;
    QActivations want;
    for (std::size_t k = 1; k <= 100; ++k) {
        for (const std::size_t m : {1u, 2u, 3u, 16u, 65u}) {
            Matrix x(m, k);
            for (std::size_t r = 0; r < m; ++r)
                fill_row(x.row(r), k, (r + k) % kRowKinds, rng);
            quantize_activations(x, got);
            quantize_activations_ref(x, want);
            expect_same_qactivations(
                got, want,
                "k=" + std::to_string(k) + " m=" + std::to_string(m));
        }
    }
}

TEST(QuantizeActivationsTest, NonFiniteRowGetsNaNScaleAndZeroBytes)
{
    const Matrix clean = random_matrix(5, 37, 2.0f, 24);
    Matrix x = clean;
    x.at(1, 20) = kNaN;
    x.at(3, 36) = -kInf;
    x.at(4, 0) = kInf;
    QActivations qa;
    QActivations qc;
    quantize_activations(x, qa);
    quantize_activations(clean, qc);
    for (std::size_t r = 0; r < 5; ++r) {
        const bool bad = r == 1 || r == 3 || r == 4;
        EXPECT_EQ(std::isnan(qa.scale(r)), bad) << "row " << r;
        if (!bad) {
            EXPECT_EQ(qa.scale(r), qc.scale(r)) << "row " << r;
        }
        EXPECT_EQ(qa.zero_point(r), bad ? 0 : qc.zero_point(r))
            << "row " << r;
        for (std::size_t c = 0; c < qa.stride; ++c)
            EXPECT_EQ(qa.row(r)[c], bad ? 0 : qc.row(r)[c])
                << "row " << r << " col " << c;
    }
}

TEST(QuantizeActivationsTest, TinyRangeRowGetsZeroRowGrid)
{
    // Rows 0-2 span less than 255 times the smallest float whose
    // reciprocal is finite, so 1/scale would be +inf and their zeros
    // 0 * inf = NaN; they take the all-zero row's grid. Row 3 is an
    // ordinary row and keeps its own.
    Matrix x(4, 5, 0.0f);
    x.at(0, 0) = 1.4e-45f;  // the smallest subnormal
    x.at(1, 2) = -1e-38f;
    x.at(1, 4) = 5e-39f;
    x.at(2, 1) = 1e-37f;  // a normal float, but a subnormal scale
    x.at(3, 0) = 1.0f;
    x.at(3, 3) = -0.5f;
    QActivations qa;
    QActivations want;
    quantize_activations(x, qa);
    quantize_activations_ref(x, want);
    expect_same_qactivations(qa, want, "tiny ranges");
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(qa.scale(r), 1.0f) << "row " << r;
        EXPECT_EQ(qa.zero_point(r), 0) << "row " << r;
        for (std::size_t c = 0; c < qa.stride; ++c)
            EXPECT_EQ(qa.row(r)[c], 0) << "row " << r << " col " << c;
    }
    EXPECT_EQ(qa.scale(3), 1.5f / 255.0f);
    EXPECT_EQ(qa.row(3)[0], 255);
    EXPECT_EQ(qa.row(3)[3], 0);
}

TEST(QMatrixTest, NonFiniteWeightRowGetsNaNScaleAndZeroBytes)
{
    const Matrix clean = random_matrix(6, 17, 1.5f, 25);
    Matrix w = clean;
    w.at(1, 3) = kNaN;
    w.at(3, 16) = kInf;
    w.at(4, 0) = -kInf;
    for (const bool transpose : {false, true}) {
        SCOPED_TRACE(transpose ? "per column" : "per row");
        const QMatrix q = QMatrix::quantize(w, transpose);
        const QMatrix qc = QMatrix::quantize(clean, transpose);
        ASSERT_EQ(q.rows(), qc.rows());
        for (std::size_t ch = 0; ch < q.rows(); ++ch) {
            // A channel is bad when it holds one of the poisoned
            // elements: a row of w, or with transpose a column.
            const bool bad = transpose ? ch == 3 || ch == 16 || ch == 0
                                       : ch == 1 || ch == 3 || ch == 4;
            EXPECT_EQ(std::isnan(q.scale(ch)), bad) << "channel " << ch;
            if (!bad) {
                EXPECT_EQ(q.scale(ch), qc.scale(ch)) << "channel " << ch;
            }
            EXPECT_EQ(q.row_sum(ch), bad ? 0 : qc.row_sum(ch))
                << "channel " << ch;
            for (std::size_t c = 0; c < q.cols(); ++c)
                EXPECT_EQ(q.row(ch)[c], bad ? 0 : qc.row(ch)[c])
                    << "channel " << ch << " col " << c;
        }
    }
}

TEST(QMatrixTest, RoundTripAndIdempotentRequantize)
{
    const Matrix w = random_matrix(9, 17, 1.5f, 22);
    const QMatrix q = QMatrix::quantize(w, /*transpose=*/false);
    ASSERT_EQ(q.rows(), 9u);
    ASSERT_EQ(q.cols(), 17u);
    const Matrix deq = dequantize(q);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        // scale = max|row|/127, so error <= scale/2 and the extreme
        // element maps exactly.
        for (std::size_t c = 0; c < w.cols(); ++c)
            EXPECT_NEAR(deq.at(r, c), w.at(r, c),
                        q.scale(r) * 0.5f + 1e-7f);
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < w.cols(); ++c)
            sum += q.row(r)[c];
        EXPECT_EQ(sum, q.row_sum(r));
    }
    // Quantizing the dequantized matrix reproduces the identical
    // grid — the property that makes the int8 engine execute exactly
    // the weights compress_model left behind.
    const QMatrix q2 = QMatrix::quantize(deq, /*transpose=*/false);
    EXPECT_EQ(dequantize(q2), deq);

    // transpose = true reads per output channel (column).
    const QMatrix qt = QMatrix::quantize(w, /*transpose=*/true);
    ASSERT_EQ(qt.rows(), 17u);
    ASSERT_EQ(qt.cols(), 9u);
    for (std::size_t c = 0; c < w.cols(); ++c)
        for (std::size_t r = 0; r < w.rows(); ++r)
            EXPECT_NEAR(dequantize(qt).at(c, r), w.at(r, c),
                        qt.scale(c) * 0.5f + 1e-7f);
}

TEST(QMatrixTest, ZeroRowsStayExactlyZero)
{
    Matrix w(4, 6, 0.0f);
    w.at(1, 2) = 3.0f;  // only row 1 has content
    const QMatrix q = QMatrix::quantize(w, /*transpose=*/false);
    EXPECT_EQ(q.scale(0), 0.0f);
    EXPECT_EQ(q.scale(2), 0.0f);
    const Matrix deq = dequantize(q);
    for (std::size_t c = 0; c < 6; ++c) {
        EXPECT_EQ(deq.at(0, c), 0.0f);
        EXPECT_EQ(deq.at(3, c), 0.0f);
    }
    EXPECT_FLOAT_EQ(deq.at(1, 2), 3.0f);
}

TEST(QgemmTest, MatchesReferenceExactlyAtOddShapes)
{
    // Ragged everything: m not a multiple of 4, n not a multiple of
    // 16, k not a multiple of 4. Kernel and reference accumulate the
    // same integers and requantize with the same expression, so the
    // comparison is exact float equality, not a tolerance.
    const std::size_t ms[] = {1, 3, 5, 8};
    const std::size_t ns[] = {1, 15, 17, 33};
    const std::size_t ks[] = {1, 3, 7, 64, 129};
    std::uint64_t seed = 100;
    for (const std::size_t m : ms) {
        for (const std::size_t n : ns) {
            for (const std::size_t k : ks) {
                const Matrix x = random_matrix(m, k, 2.0f, seed);
                const Matrix w = random_matrix(n, k, 1.0f, seed + 1);
                seed += 2;
                QActivations qa;
                quantize_activations(x, qa);
                const QMatrix qw =
                    QMatrix::quantize(w, /*transpose=*/false);
                Matrix c_kernel(m, n);
                Matrix c_ref(m, n);
                qgemm_nt(qa, qw, c_kernel);
                qgemm_nt_ref(qa, qw, c_ref);
                for (std::size_t i = 0; i < m; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        ASSERT_EQ(c_kernel.at(i, j), c_ref.at(i, j))
                            << "m=" << m << " n=" << n << " k=" << k
                            << " at (" << i << "," << j << ")";
            }
        }
    }
}

TEST(QgemmTest, MatchesFp32GemmWithinQuantTolerance)
{
    const std::size_t m = 7;
    const std::size_t n = 19;
    const std::size_t k = 37;
    const Matrix x = random_matrix(m, k, 1.5f, 300);
    const Matrix w = random_matrix(n, k, 0.8f, 301);

    QActivations qa;
    quantize_activations(x, qa);
    const QMatrix qw = QMatrix::quantize(w, /*transpose=*/false);
    Matrix c_q(m, n);
    qgemm_nt(qa, qw, c_q);

    Matrix c_f(m, n);
    gemm_nt_ref(x, w, c_f);

    float amax = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i)
        amax = std::max(amax, std::fabs(x.data()[i]));
    for (std::size_t i = 0; i < m; ++i) {
        const float sa = qa.scale(i);
        for (std::size_t j = 0; j < n; ++j) {
            // |sum a*w - sum a^*w^| <= k * (|w|max * da + |a|max * dw
            // + da*dw) with da <= sa_i (clamp slack) and dw = sw/2.
            const float sw = qw.scale(j);
            const float wmax = 127.0f * sw;
            const float bound =
                static_cast<float>(k) *
                    (wmax * sa + amax * 0.5f * sw + sa * sw) +
                1e-4f;
            EXPECT_NEAR(c_q.at(i, j), c_f.at(i, j), bound)
                << "at (" << i << "," << j << ")";
        }
    }
}

TEST(QgemmTest, AccumulatesIntoSeededOutput)
{
    const Matrix x = random_matrix(3, 8, 1.0f, 400);
    const Matrix w = random_matrix(5, 8, 1.0f, 401);
    QActivations qa;
    quantize_activations(x, qa);
    const QMatrix qw = QMatrix::quantize(w, /*transpose=*/false);
    Matrix fresh(3, 5);
    qgemm_nt(qa, qw, fresh);
    Matrix seeded(3, 5, 2.5f);
    qgemm_nt(qa, qw, seeded);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_FLOAT_EQ(seeded.at(i, j), fresh.at(i, j) + 2.5f);
}

TEST(QgemmTest, Int32AccumulationSurvivesSaturatingMagnitudes)
{
    // Every activation byte 255, weight rows pinned to +127/-127,
    // k chosen just under the asserted bound: per-channel |acc| =
    // k * 255 * 127 = 2,122,253,820 — within 1.2% of INT32_MAX. Any
    // int32 overflow in the kernel is UB the sanitizer gate catches;
    // the int64 reference proves the expected value.
    const std::size_t m = 2;
    const std::size_t n = 17;
    const std::size_t k = 65532;
    Matrix x(m, k, 4.0f);  // positive range: zero_point = 0
    Matrix w(n, k);
    for (std::size_t j = 0; j < n; ++j) {
        const float v = (j % 2 == 0) ? 1.0f : -1.0f;
        for (std::size_t p = 0; p < k; ++p)
            w.at(j, p) = v;
    }

    QActivations qa;
    quantize_activations(x, qa);
    ASSERT_EQ(qa.zero_point(0), 0);
    for (std::size_t p = 0; p < k; ++p)
        ASSERT_EQ(qa.row(0)[p], 255);
    const QMatrix qw = QMatrix::quantize(w, /*transpose=*/false);

    Matrix c_kernel(m, n);
    Matrix c_ref(m, n);
    qgemm_nt(qa, qw, c_kernel);
    qgemm_nt_ref(qa, qw, c_ref);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(c_kernel.at(i, j), c_ref.at(i, j));
            // Hand-computed: sa * sw * k * 255 * (+/-127).
            const double expect = static_cast<double>(qa.scale(i)) *
                                  qw.scale(j) * 255.0 * 127.0 *
                                  static_cast<double>(k) *
                                  ((j % 2 == 0) ? 1.0 : -1.0);
            EXPECT_NEAR(c_kernel.at(i, j), expect,
                        std::fabs(expect) * 1e-5);
        }
    }
}

TEST(QgemmTest, NonFiniteActivationRowPoisonsOnlyItsOutputs)
{
    // fp32 gives a non-finite output wherever a NaN or inf input
    // meets a weight; int8 must not turn such a row finite. Every
    // row position of 1-9 rows covers the 4-row tiles and their
    // remainders, and 37 channels a ragged 16-channel edge.
    const Matrix w = random_matrix(37, 21, 1.0f, 25);
    const QMatrix qw = QMatrix::quantize(w, /*transpose=*/false);
    qw.pack();
    QActivations qa;
    for (std::size_t m = 1; m <= 9; ++m) {
        const Matrix clean = random_matrix(m, 21, 1.5f, 26 + m);
        Matrix want(m, 37);
        quantize_activations(clean, qa);
        qgemm_nt(qa, qw, want);
        for (std::size_t b = 0; b < m; ++b) {
            for (const float bad : {kNaN, kInf, -kInf}) {
                Matrix x = clean;
                x.at(b, (b * 5) % 21) = bad;
                Matrix got(m, 37);
                quantize_activations(x, qa);
                qgemm_nt(qa, qw, got);
                for (std::size_t i = 0; i < m; ++i) {
                    for (std::size_t j = 0; j < 37; ++j) {
                        if (i == b) {
                            EXPECT_FALSE(std::isfinite(got.at(i, j)))
                                << "m=" << m << " row " << i << " ch " << j;
                        } else {
                            EXPECT_EQ(std::memcmp(&got.at(i, j),
                                                  &want.at(i, j),
                                                  sizeof(float)),
                                      0)
                                << "m=" << m << " row " << i << " ch " << j;
                        }
                    }
                }
            }
        }
    }
}

TEST(QgemmTest, RecordsOpStats)
{
    op_stats().reset();
    const Matrix x = random_matrix(4, 16, 1.0f, 500);
    const Matrix w = random_matrix(8, 16, 1.0f, 501);
    QActivations qa;
    quantize_activations(x, qa);
    const QMatrix qw = QMatrix::quantize(w, /*transpose=*/false);
    Matrix c(4, 8);
    qgemm_nt(qa, qw, c);
    EXPECT_EQ(op_stats().qgemm.calls, 1u);
    EXPECT_EQ(op_stats().qgemm.work, 2ull * 4 * 8 * 16);
    op_stats().reset();
}

}  // namespace
}  // namespace voyager::nn
