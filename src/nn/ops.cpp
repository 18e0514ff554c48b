#include "nn/ops.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

namespace voyager::nn {

OpStats &
op_stats()
{
    static OpStats stats;
    return stats;
}

void
export_op_stats(StatRegistry &reg, const std::string &prefix)
{
    const OpStats &s = op_stats();
    const auto one = [&reg](const std::string &p, const OpClassStats &c,
                            const char *work_name) {
        reg.counter(p + ".calls") = c.calls;
        reg.counter(p + "." + work_name) = c.work;
        reg.gauge(p + ".seconds", true) = c.seconds;
    };
    one(prefix + ".gemm", s.gemm, "flops");
    one(prefix + ".qgemm", s.qgemm, "ops");
    one(prefix + ".lstm_gate", s.lstm_gate, "elements");
    one(prefix + ".attention", s.attention, "elements");
}

namespace {

double
monotonic_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

ScopedOpTimer::ScopedOpTimer(OpClassStats &s, std::uint64_t work)
    : s_(s), t0_(monotonic_seconds())
{
    ++s_.calls;
    s_.work += work;
}

ScopedOpTimer::~ScopedOpTimer()
{
    s_.seconds += monotonic_seconds() - t0_;
}

namespace {

// ---------------------------------------------------------------------
// Packed register-blocked GEMM microkernel (single core).
//
// GotoBLAS-style: the microkernel keeps an MR x NR accumulator tile in
// vector registers across the whole k loop, walking MR rows of op(A)
// and NR-column panels of op(B) (row-major within the panel). Both
// operands are read in place wherever the source layout allows: full
// MR-row tiles of A in either orientation, and full NR-column panels
// of a non-transposed B. Only a transposed B and the ragged edge tiles
// are packed, zero-padded, into reused scratch. The tile is expressed
// with ISA-agnostic GCC/Clang vector extensions (the compiler
// legalises them for whatever -march is active, so the same source
// serves AVX-512, AVX2 and scalar targets); each k step is one
// broadcast of an A element FMA'd against B vectors. Padded lanes
// compute zeros and the write-back masks them off, which keeps the
// kernel branch-free for dense activations (no data-dependent
// zero-skip — that defeated vectorisation in the seed kernels).
// ---------------------------------------------------------------------

constexpr std::size_t MR = 8;   ///< rows per register tile
constexpr std::size_t NR = 32;  ///< cols per register tile

std::vector<float> &
pack_buf_a()
{
    static thread_local std::vector<float> buf;
    return buf;
}

std::vector<float> &
pack_buf_b()
{
    static thread_local std::vector<float> buf;
    return buf;
}

/**
 * Pack the ragged last MR-row tile of op(A) (m,k), rows i0..i0+irem:
 * dst[p][i] = op(A)(i0+i, p), zero-padded to MR rows. trans selects
 * op(A) = A^T, reading A as (k,m). Full tiles are read in place.
 */
void
pack_a_tile(const Matrix &a, bool trans, std::size_t i0,
            std::size_t irem, std::size_t k, float *dst)
{
    for (std::size_t p = 0; p < k; ++p) {
        float *d = dst + p * MR;
        for (std::size_t i = 0; i < irem; ++i)
            d[i] = trans ? a.at(p, i0 + i) : a.at(i0 + i, p);
        for (std::size_t i = irem; i < MR; ++i)
            d[i] = 0.0f;
    }
}

/**
 * Pack one column panel of op(B) (k,n) starting at column j0, `width`
 * floats per row (NR, or VL for a narrow ragged edge):
 * dst[p][j] = op(B)(p, j0+j), zero-padded to `width` columns. trans
 * selects op(B) = B^T, reading B as (n,k).
 */
void
pack_b_tile(const Matrix &b, bool trans, std::size_t j0,
            std::size_t jrem, std::size_t k, std::size_t width,
            float *dst)
{
    if (trans) {
        // op(B)(p, j) = B(j, p): column walk over B's rows.
        for (std::size_t p = 0; p < k; ++p) {
            float *d = dst + p * width;
            for (std::size_t j = 0; j < jrem; ++j)
                d[j] = b.at(j0 + j, p);
            for (std::size_t j = jrem; j < width; ++j)
                d[j] = 0.0f;
        }
    } else {
        // Contiguous strips of each row of B.
        for (std::size_t p = 0; p < k; ++p) {
            const float *src = b.row(p) + j0;
            float *d = dst + p * width;
            for (std::size_t j = 0; j < jrem; ++j)
                d[j] = src[j];
            for (std::size_t j = jrem; j < width; ++j)
                d[j] = 0.0f;
        }
    }
}

/** 16-float vector; aligned(4) legalises unaligned loads/stores. */
using vfloat
    = float __attribute__((vector_size(64), aligned(4), may_alias));
constexpr std::size_t VL = 16;        ///< lanes per vector
constexpr std::size_t NV = NR / VL;   ///< vectors per tile row

/**
 * MR x (NW * VL) register tile: C[0:mrem,0:nrem] += Apanel * Bpanel.
 * NW is NV for an NR-column panel and 1 for a narrow ragged edge.
 * ARows selects how the A panel is addressed: element (i, p) sits at
 * ap[i * astride + p] when MR rows of a row-major op(A) are read in
 * place, and at ap[p * astride + i] in a column panel (a transposed A
 * read in place, or a packed edge tile with stride MR). B row p
 * starts at bp + p * bstride (leading dimension in place, the panel
 * width packed). Callers guarantee MR rows of A and NW * VL floats of
 * B are readable at every step — ragged edge tiles always come packed
 * and zero-padded. Every lane runs the same multiply-add sequence
 * over p whatever the addressing and tile width, so in-place and
 * packed operands give the same bits.
 */
template <bool ARows, std::size_t NW>
void
micro_kernel(std::size_t k, const float *__restrict ap,
             std::size_t astride, const float *__restrict bp,
             std::size_t bstride, float *__restrict c, std::size_t ldc,
             std::size_t mrem, std::size_t nrem)
{
    vfloat acc[MR][NW] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const auto *__restrict brow
            = reinterpret_cast<const vfloat *>(bp + p * bstride);
        for (std::size_t i = 0; i < MR; ++i) {
            const float av
                = ARows ? ap[i * astride + p] : ap[p * astride + i];
            for (std::size_t w = 0; w < NW; ++w)
                acc[i][w] += brow[w] * av;
        }
    }
    if (mrem == MR && nrem == NW * VL) {
        for (std::size_t i = 0; i < MR; ++i) {
            auto *crow = reinterpret_cast<vfloat *>(c + i * ldc);
            for (std::size_t w = 0; w < NW; ++w)
                crow[w] += acc[i][w];
        }
    } else {
        for (std::size_t i = 0; i < mrem; ++i) {
            float *crow = c + i * ldc;
            const float *accrow
                = reinterpret_cast<const float *>(acc[i]);
            for (std::size_t j = 0; j < nrem; ++j)
                crow[j] += accrow[j];
        }
    }
}

/**
 * Every MR-row tile of one column panel of C (columns j0..j0+nrem of
 * `c`, which points at column j0), NW vectors wide: full tiles read A
 * in place, then the packed ragged edge tile of a_edge > 1 rows.
 */
template <std::size_t NW>
void
panel_tiles(const Matrix &a, bool a_trans, std::size_t full_m,
            const float *edge_tile, std::size_t a_edge, std::size_t k,
            const float *bp, std::size_t bstride, float *c,
            std::size_t ldc, std::size_t nrem)
{
    const std::size_t lda = a.cols();
    for (std::size_t i0 = 0; i0 < full_m; i0 += MR) {
        if (a_trans)
            micro_kernel<false, NW>(k, a.data() + i0, lda, bp, bstride,
                                    c + i0 * ldc, ldc, MR, nrem);
        else
            micro_kernel<true, NW>(k, a.row(i0), lda, bp, bstride,
                                   c + i0 * ldc, ldc, MR, nrem);
    }
    if (a_edge > 1)
        micro_kernel<false, NW>(k, edge_tile, MR, bp, bstride,
                                c + full_m * ldc, ldc, a_edge, nrem);
}

constexpr std::size_t NRW = 128;        ///< cols per wide row tile
constexpr std::size_t NVW = NRW / VL;   ///< vectors per wide row tile

/**
 * One-row tile: c[0:nrem] += arow * Bpanel over NW vectors. The row
 * of op(A) is read in place (element p at ap[p * astride]), so a
 * one-row tile is neither packed nor padded to MR rows. Each lane
 * runs the same multiply-add sequence over k as micro_kernel, so a
 * row computed here has the same bits as inside an MR-row tile.
 */
template <std::size_t NW>
void
row_kernel(std::size_t k, const float *__restrict ap, std::size_t astride,
           const float *__restrict bp, std::size_t bstride,
           float *__restrict c, std::size_t nrem)
{
    vfloat acc[NW] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float av = ap[p * astride];
        const auto *__restrict brow
            = reinterpret_cast<const vfloat *>(bp + p * bstride);
        for (std::size_t w = 0; w < NW; ++w)
            acc[w] += brow[w] * av;
    }
    if (nrem == NW * VL) {
        auto *cv = reinterpret_cast<vfloat *>(c);
        for (std::size_t w = 0; w < NW; ++w)
            cv[w] += acc[w];
    } else {
        const auto *accrow = reinterpret_cast<const float *>(acc);
        for (std::size_t j = 0; j < nrem; ++j)
            c[j] += accrow[j];
    }
}

/**
 * Shared driver: C += op(A) * op(B). Full MR-row tiles of A are read
 * in place in either orientation (rows of a row-major op(A), or
 * MR-float column strips of a transposed one), and so are full
 * NR-column panels of a non-transposed B. A transposed B is packed
 * panel by panel, and ragged edge tiles are packed zero-padded, into
 * reused thread-local scratch; a ragged last column panel of at most
 * VL columns is packed VL wide and runs a one-vector tile instead of
 * a padded NR-wide one. A one-row tile (m == 1, or a ragged last tile
 * of one row) runs row_kernel on the row in place; when B is read in
 * place it takes NRW columns per pass, enough independent
 * accumulators to hide the FMA latency.
 */
void
gemm_packed(const Matrix &a, bool a_trans, const Matrix &b, bool b_trans,
            Matrix &c)
{
    const std::size_t m = c.rows();
    const std::size_t n = c.cols();
    const std::size_t k = a_trans ? a.rows() : a.cols();
    ScopedOpTimer timer(op_stats().gemm, 2ull * m * n * k);
    if (m == 0 || n == 0 || k == 0)
        return;

    const std::size_t a_edge = m % MR;
    const std::size_t b_edge = n % NR;
    const bool row_tile = a_edge == 1;
    const std::size_t full_m = m - a_edge;  // rows in full MR tiles
    const std::size_t tiles_n = (n + NR - 1) / NR;
    const bool b_direct = !b_trans;   // op(B) rows are contiguous in B
    // Width of the packed ragged last column panel.
    const std::size_t edge_w = b_edge != 0 && b_edge <= VL ? VL : NR;

    // A: only a ragged edge tile of more than one row is packed (a
    // one-row edge is handled by row_kernel). B: pack every panel of
    // a transposed B, else only the zero-padded ragged edge panel.
    auto &abuf = pack_buf_a();
    auto &bbuf = pack_buf_b();
    if (a_edge > 1) {
        if (abuf.size() < k * MR)
            abuf.resize(k * MR);
        pack_a_tile(a, a_trans, full_m, a_edge, k, abuf.data());
    }
    if (!b_direct) {
        if (bbuf.size() < tiles_n * k * NR)
            bbuf.resize(tiles_n * k * NR);
        for (std::size_t jt = 0; jt < tiles_n; ++jt) {
            const std::size_t nrem = std::min(NR, n - jt * NR);
            pack_b_tile(b, b_trans, jt * NR, nrem, k,
                        nrem < NR ? edge_w : NR,
                        bbuf.data() + jt * k * NR);
        }
    } else if (b_edge != 0) {
        if (bbuf.size() < k * NR)
            bbuf.resize(k * NR);
        pack_b_tile(b, b_trans, n - b_edge, b_edge, k, edge_w,
                    bbuf.data());
    }

    // Column panel jt of op(B): where its rows start, their stride,
    // and whether it is the one-vector narrow edge.
    struct Panel
    {
        const float *p;
        std::size_t stride;
        bool narrow;
    };
    const auto b_panel = [&](std::size_t jt, std::size_t nrem) -> Panel {
        if (nrem < NR)
            return {b_direct ? bbuf.data() : bbuf.data() + jt * k * NR,
                    edge_w, edge_w == VL};
        if (b_direct)
            return {b.data() + jt * NR, b.cols(), false};
        return {bbuf.data() + jt * k * NR, NR, false};
    };

    const std::size_t ldc = c.cols();
    for (std::size_t jt = 0; jt < tiles_n; ++jt) {
        const std::size_t j0 = jt * NR;
        const std::size_t nrem = std::min(NR, n - j0);
        const Panel bp = b_panel(jt, nrem);
        if (bp.narrow)
            panel_tiles<1>(a, a_trans, full_m, abuf.data(), a_edge, k,
                           bp.p, bp.stride, c.data() + j0, ldc, nrem);
        else
            panel_tiles<NV>(a, a_trans, full_m, abuf.data(), a_edge, k,
                            bp.p, bp.stride, c.data() + j0, ldc, nrem);
    }

    if (!row_tile)
        return;
    // op(A)(m-1, p) sits at A(m-1, p), or at A(p, m-1) when transposed.
    const float *ap = a_trans ? a.data() + (m - 1) : a.row(m - 1);
    const std::size_t astride = a_trans ? a.cols() : 1;
    float *crow = c.row(m - 1);
    std::size_t j0 = 0;
    if (b_direct) {
        for (; j0 + NRW <= n; j0 += NRW)
            row_kernel<NVW>(k, ap, astride, b.data() + j0, b.cols(),
                            crow + j0, NRW);
    }
    for (; j0 < n; j0 += NR) {
        const std::size_t nrem = std::min(NR, n - j0);
        const Panel bp = b_panel(j0 / NR, nrem);
        if (bp.narrow)
            row_kernel<1>(k, ap, astride, bp.p, bp.stride, crow + j0,
                          nrem);
        else
            row_kernel<NV>(k, ap, astride, bp.p, bp.stride, crow + j0,
                           nrem);
    }
}

}  // namespace

void
gemm_nn(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.rows());
    assert(c.rows() == a.rows() && c.cols() == b.cols());
    gemm_packed(a, false, b, false, c);
}

void
gemm_tn(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.rows() == b.rows());
    assert(c.rows() == a.cols() && c.cols() == b.cols());
    gemm_packed(a, true, b, false, c);
}

void
gemm_nt(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.cols());
    assert(c.rows() == a.rows() && c.cols() == b.rows());
    gemm_packed(a, false, b, true, c);
}

// ---------------------------------------------------------------------
// Seed-era naive kernels, retained verbatim as references.
// ---------------------------------------------------------------------

void
gemm_nn_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.rows());
    assert(c.rows() == a.rows() && c.cols() == b.cols());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f)
                continue;
            const float *brow = b.row(p);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemm_tn_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.rows() == b.rows());
    assert(c.rows() == a.cols() && c.cols() == b.cols());
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    for (std::size_t p = 0; p < k; ++p) {
        const float *arow = a.row(p);
        const float *brow = b.row(p);
        for (std::size_t i = 0; i < m; ++i) {
            const float av = arow[i];
            if (av == 0.0f)
                continue;
            float *crow = c.row(i);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemm_nt_ref(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.cols());
    assert(c.rows() == a.rows() && c.cols() == b.rows());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = b.row(j);
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] += acc;
        }
    }
}

void
add_inplace(Matrix &y, const Matrix &x)
{
    assert(y.rows() == x.rows() && y.cols() == x.cols());
    float *yd = y.data();
    const float *xd = x.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] += xd[i];
}

void
scale_inplace(Matrix &y, float alpha)
{
    float *yd = y.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        yd[i] *= alpha;
}

void
add_bias(Matrix &y, const Matrix &bias)
{
    assert(bias.rows() == 1 && bias.cols() == y.cols());
    const float *b = bias.data();
    for (std::size_t r = 0; r < y.rows(); ++r) {
        float *row = y.row(r);
        for (std::size_t c = 0; c < y.cols(); ++c)
            row[c] += b[c];
    }
}

void
bias_backward(const Matrix &dy, Matrix &bias_grad)
{
    assert(bias_grad.rows() == 1 && bias_grad.cols() == dy.cols());
    float *g = bias_grad.data();
    for (std::size_t r = 0; r < dy.rows(); ++r) {
        const float *row = dy.row(r);
        for (std::size_t c = 0; c < dy.cols(); ++c)
            g[c] += row[c];
    }
}

void
softmax_rows(Matrix &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float *row = m.row(r);
        float mx = row[0];
        for (std::size_t c = 1; c < m.cols(); ++c)
            mx = std::max(mx, row[c]);
        float sum = 0.0f;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        const float inv = 1.0f / sum;
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] *= inv;
    }
}

namespace {

// ---------------------------------------------------------------------
// Vectorised LSTM gate activations.
//
// sigmoid and tanh evaluated VL lanes at a time on the GEMM tile's
// vfloat type; libm's scalar exp/tanh do not vectorise. The helpers
// work in place on a vector reference because passing a 64-byte
// vector by value changes the ABI between -march targets (-Wpsabi).
// Absolute error against a double-precision reference is <= 2e-7
// (about 9e-8 measured over [-40, 40], as for libm's float path); NaN
// propagates and +-inf saturate to the exact limits.
// ---------------------------------------------------------------------

inline const vfloat &
vload(const float *p)
{
    return *reinterpret_cast<const vfloat *>(p);
}

inline vfloat &
vref(float *p)
{
    return *reinterpret_cast<vfloat *>(p);
}

using vuint = std::uint32_t __attribute__((vector_size(64)));
/** Lane mask of a vfloat comparison: -1 where true, 0 where false. */
using vint = std::int32_t __attribute__((vector_size(64)));

/**
 * e^x in place (Cephes expf): x = n ln2 + r with n = round(x / ln2)
 * and |r| <= ln2 / 2 (Cody-Waite: ln2 split in two so n * ln2_hi is
 * exact), e^r from a degree-7 polynomial, then a multiply by 2^n
 * built from exponent bits. Inputs are clamped so n stays in
 * [-126, 128]: below -87 the result stays at e^-87 (about 1.4 FLT_MIN,
 * so never subnormal), and from 127.5 ln2 up n = 128 makes 2^n and
 * the result +inf. A NaN input survives the clamp (its comparisons
 * are false) and the final multiply.
 */
inline void
vexp(vfloat &x)
{
    const vfloat hi = vfloat{} + 88.72283935546875f;  // ~ln(FLT_MAX)
    const vfloat lo = vfloat{} - 87.0f;               // > -126 ln2
    x = x > hi ? hi : x;
    x = x < lo ? lo : x;
    // Adding 1.5 * 2^23 rounds x / ln2 to the integer n, which then
    // sits in the low mantissa bits of `shifted`.
    const vfloat shifted = x * 1.44269504088896341f + 12582912.0f;
    const vfloat n = shifted - 12582912.0f;
    const vfloat r = x - n * 0.693359375f - n * -2.12194440e-4f;
    vfloat p = vfloat{} + 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * (r * r) + r + 1.0f;
    // Exponent field n + 127 (1..255; 255 is +inf).
    x = p * (vfloat)(((vuint)shifted + 127u) << 23);
}

/** Logistic sigmoid in place: 1 / (1 + e^-x). */
inline void
vsigmoid(vfloat &x)
{
    x = -x;
    vexp(x);
    x = 1.0f / (1.0f + x);
}

/**
 * tanh in place. |x| < 0.625: the Cephes tanhf odd polynomial
 * x + x^3 P(x^2). Beyond: 1 - 2 / (e^{2|x|} + 1) with the sign
 * restored. (2 sigmoid(2x) - 1 cancels badly near 0 and costs the
 * LSTM gradient checks their tolerance.)
 */
inline void
vtanh(vfloat &x)
{
    const vfloat zero = {};
    const vfloat ax = x < zero ? -x : x;
    const vfloat z = x * x;
    vfloat p = zero - 5.70498872745e-3f;
    p = p * z + 2.06390887954e-2f;
    p = p * z - 5.37397155531e-2f;
    p = p * z + 1.33314422036e-1f;
    p = p * z - 3.33332819422e-1f;
    const vfloat small = p * z * x + x;
    vfloat e = ax + ax;
    vexp(e);
    const vfloat t = 1.0f - 2.0f / (e + 1.0f);
    const vfloat large = x < zero ? -t : t;
    x = ax < 0.625f ? small : large;
}

/**
 * Copy n < VL floats into a VL-float block whose other lanes the
 * caller has zeroed. The last, partial block of a row runs through
 * the same vector code as full blocks on such copies, so a value
 * gives the same bits in every lane.
 */
inline float *
stage(float *blk, const float *src, std::size_t n)
{
    std::copy(src, src + n, blk);
    return blk;
}

/** Bit l set where lane l of `x` exceeds `t` (false for NaN). */
inline std::uint32_t
vbits_above(const vfloat &x, float t)
{
    using vlong = std::int64_t __attribute__((vector_size(64)));
    const vint pow2 = {1 << 0,  1 << 1,  1 << 2,  1 << 3,
                       1 << 4,  1 << 5,  1 << 6,  1 << 7,
                       1 << 8,  1 << 9,  1 << 10, 1 << 11,
                       1 << 12, 1 << 13, 1 << 14, 1 << 15};
    const vint bits = (x > t) & pow2;
    const vlong pairs = (vlong)bits;
    std::int64_t any = 0;
    for (std::size_t l = 0; l < VL / 2; ++l)
        any |= pairs[l];
    return static_cast<std::uint32_t>(any) |
           static_cast<std::uint32_t>(any >> 32);
}

}  // namespace

void
tanh_inplace(Matrix &m)
{
    float *d = m.data();
    const std::size_t size = m.size();
    float blk[VL] = {};
    for (std::size_t j = 0; j < size; j += VL) {
        const std::size_t n = std::min(VL, size - j);
        float *x = n == VL ? d + j : stage(blk, d + j, n);
        vtanh(vref(x));
        if (n < VL)
            std::copy(blk, blk + n, d + j);
    }
}

std::size_t
softmax_topk(const float *row, std::size_t n, std::size_t k, bool sigmoid,
             std::int32_t *idx, float *prob)
{
    // Top k by logit, descending, kept in prob[] until the end. A new
    // column goes after every kept logit it does not exceed, so a tie
    // keeps the smaller column first and never displaces it.
    const std::size_t kept = std::min(k, n);
    if (kept == 0)
        return 0;
    std::size_t size = 0;
    const auto keep = [&](std::size_t c) {
        const float v = row[c];
        std::size_t pos = size < kept ? size++ : kept - 1;
        for (; pos > 0 && v > prob[pos - 1]; --pos) {
            prob[pos] = prob[pos - 1];
            idx[pos] = idx[pos - 1];
        }
        prob[pos] = v;
        idx[pos] = static_cast<std::int32_t>(c);
    };
    // The scan also checks every column for NaN or +inf: either one
    // makes the whole row NaN in both head kinds, so the serve
    // ladder sees a poisoned forward whichever loss trained it.
    constexpr float inf = std::numeric_limits<float>::infinity();
    bool poisoned = false;
    std::size_t c = 0;
    for (; c < kept; ++c) {
        poisoned |= !(row[c] < inf);
        keep(c);
    }
    // Once k are kept, a column enters only above the k-th logit; a
    // whole block below it is skipped with one vector compare.
    vint below_inf = vint{} - 1;
    for (; c + VL <= n; c += VL) {
        const vfloat &x = vload(row + c);
        below_inf &= x < inf;
        for (std::uint32_t bits = vbits_above(x, prob[kept - 1]);
             bits != 0; bits &= bits - 1) {
            const std::size_t l = c + __builtin_ctz(bits);
            if (row[l] > prob[kept - 1])
                keep(l);
        }
    }
    for (; c < n; ++c) {
        poisoned |= !(row[c] < inf);
        if (row[c] > prob[kept - 1])
            keep(c);
    }
    for (std::size_t l = 0; l < VL; ++l)
        poisoned |= below_inf[l] == 0;
    if (poisoned) {
        std::fill(prob, prob + kept, std::numeric_limits<float>::quiet_NaN());
        return kept;
    }

    if (sigmoid) {
        for (std::size_t i = 0; i < kept; ++i)
            prob[i] = 1.0f / (1.0f + std::exp(-prob[i]));
        return kept;
    }

    // sum exp(l - max) over the whole row, 16 lanes at a time. The
    // last, partial block is the VL columns ending at n, or for n < VL
    // a zero-padded copy; either way the lanes outside its columns
    // (summed already, or padding) are masked out of the sum.
    const vfloat mx = vfloat{} + prob[0];
    vfloat acc = {};
    std::size_t j = 0;
    for (; j + VL <= n; j += VL) {
        vfloat e = vload(row + j) - mx;
        vexp(e);
        acc += e;
    }
    if (j < n) {
        const vfloat lane = {0, 1, 2,  3,  4,  5,  6,  7,
                             8, 9, 10, 11, 12, 13, 14, 15};
        float blk[VL] = {};
        const bool short_row = n < VL;
        vfloat e = vload(short_row ? stage(blk, row, n) : row + n - VL) - mx;
        vexp(e);
        const float first = short_row ? 0.0f : static_cast<float>(j + VL - n);
        const float end = short_row ? static_cast<float>(n) : VL;
        acc += lane >= first && lane < end ? e : vfloat{};
    }
    float half[VL];
    vref(half) = acc;
    for (std::size_t w = VL / 2; w > 0; w /= 2)
        for (std::size_t l = 0; l < w; ++l)
            half[l] += half[l + w];
    const float inv = 1.0f / half[0];

    // The kept entries through the same vexp, so each probability is
    // its summed term times 1/sum.
    for (std::size_t i = 0; i < kept; i += VL) {
        const std::size_t m = std::min(VL, kept - i);
        float blk[VL] = {};
        vfloat &e = vref(stage(blk, prob + i, m));
        e -= mx;
        vexp(e);
        e *= inv;
        std::copy(blk, blk + m, prob + i);
    }
    return kept;
}

void
lstm_gate_row(float *z, const float *bias, const float *c_prev,
              float *c, float *h, std::size_t hidden)
{
    enum { I, F, G, O };  // gate order within a row of z
    // Zero-padded copies for the last, partial block.
    float gate_blk[4][VL] = {};
    float bias_blk[4][VL] = {};
    float cp_blk[VL] = {};
    float c_blk[VL] = {};
    float h_blk[VL] = {};
    for (std::size_t j = 0; j < hidden; j += VL) {
        const std::size_t n = std::min(VL, hidden - j);
        float *gate[4];
        const float *b[4];
        for (std::size_t k = 0; k < 4; ++k) {
            gate[k] = z + k * hidden + j;
            b[k] = bias + k * hidden + j;
        }
        const float *cp = c_prev ? c_prev + j : nullptr;
        float *cr = c + j;
        float *hr = h + j;
        if (n < VL) {
            for (std::size_t k = 0; k < 4; ++k) {
                gate[k] = stage(gate_blk[k], gate[k], n);
                b[k] = stage(bias_blk[k], b[k], n);
            }
            if (cp)
                cp = stage(cp_blk, cp, n);
            cr = c_blk;
            hr = h_blk;
        }

        vfloat gi = vload(gate[I]) + vload(b[I]);
        vfloat gf = vload(gate[F]) + vload(b[F]);
        vfloat gg = vload(gate[G]) + vload(b[G]);
        vfloat go = vload(gate[O]) + vload(b[O]);
        vsigmoid(gi);
        vsigmoid(gf);
        vtanh(gg);
        vsigmoid(go);
        vfloat cv = gi * gg;
        if (cp)
            cv += gf * vload(cp);
        vfloat th = cv;
        vtanh(th);
        vref(gate[I]) = gi;
        vref(gate[F]) = gf;
        vref(gate[G]) = gg;
        vref(gate[O]) = go;
        vref(cr) = cv;
        vref(hr) = go * th;

        if (n < VL) {
            for (std::size_t k = 0; k < 4; ++k)
                std::copy(gate_blk[k], gate_blk[k] + n,
                          z + k * hidden + j);
            std::copy(c_blk, c_blk + n, c + j);
            std::copy(h_blk, h_blk + n, h + j);
        }
    }
}

void
lstm_gate_backward_row(const float *__restrict z,
                       const float *__restrict tanh_c,
                       const float *__restrict c_prev,
                       const float *__restrict dh, float *__restrict dc,
                       float *__restrict dz, std::size_t hidden)
{
    const std::size_t n = hidden;
    for (std::size_t j = 0; j < n; ++j) {
        const float gi = z[j];
        const float gf = z[n + j];
        const float gg = z[2 * n + j];
        const float go = z[3 * n + j];
        const float tc = tanh_c[j];
        const float d_h = dh[j];
        const float d_o = d_h * tc;
        const float d_c = dc[j] + d_h * go * (1.0f - tc * tc);
        const float d_i = d_c * gg;
        const float d_f = d_c * c_prev[j];
        const float d_g = d_c * gi;
        dc[j] = d_c * gf;  // flows to step t-1
        dz[j] = d_i * gi * (1.0f - gi);
        dz[n + j] = d_f * gf * (1.0f - gf);
        dz[2 * n + j] = d_g * (1.0f - gg * gg);
        dz[3 * n + j] = d_o * go * (1.0f - go);
    }
}

void
lstm_gate_row_ref(float *z, const float *bias, const float *c_prev,
                  float *c, float *h, std::size_t hidden)
{
    const std::size_t n = hidden;
    for (std::size_t j = 0; j < n; ++j) {
        float &gi = z[j];
        float &gf = z[n + j];
        float &gg = z[2 * n + j];
        float &go = z[3 * n + j];
        gi = 1.0f / (1.0f + std::exp(-(gi + bias[j])));
        gf = 1.0f / (1.0f + std::exp(-(gf + bias[n + j])));
        gg = std::tanh(gg + bias[2 * n + j]);
        go = 1.0f / (1.0f + std::exp(-(go + bias[3 * n + j])));
        c[j] = gi * gg + (c_prev ? gf * c_prev[j] : 0.0f);
        h[j] = go * std::tanh(c[j]);
    }
}

double
sum_squares(const Matrix &m)
{
    double acc = 0.0;
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        acc += static_cast<double>(d[i]) * d[i];
    return acc;
}

bool
is_finite(const Matrix &m)
{
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(d[i]))
            return false;
    return true;
}

}  // namespace voyager::nn
