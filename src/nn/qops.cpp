#include "nn/qops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "nn/ops.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512F__) && \
    defined(__AVX512BW__)
#define VOYAGER_QGEMM_VNNI 1
#include <immintrin.h>
#endif

namespace voyager::nn {

namespace {

// ---------------------------------------------------------------------
// Packed register-blocked int8 microkernel.
//
// Same GotoBLAS shape as the fp32 kernel in ops.cpp, retuned for
// VNNI's u8 x s8 -> s32 dot: the register tile is QMR = 4 activation
// rows by QNR = 16 output channels, and the k loop advances QKG = 4
// values per step — one `vpdpbusd` per (row, zmm) pair, with the B
// panel pre-packed (QMatrix::pack) so each k group of all 16 channels
// is a single 64-byte load. Activation rows are zero-padded to a
// multiple of 4 bytes by quantize_activations, and the panel pads
// ragged k/n edges with zero weight bytes, so padded lanes contribute
// exactly 0 — the kernel stays branch-free and integer-exact.
// ---------------------------------------------------------------------

constexpr std::size_t QMR = 4;   ///< activation rows per tile
constexpr std::size_t QNR = 16;  ///< output channels per tile
constexpr std::size_t QKG = 4;   ///< k values per dot group

/**
 * Fold one row of int32 accumulators into fp32 output: apply the
 * symmetric weight scale, the activation scale, and the activation
 * zero-point correction via the precomputed weight row sums. Uses a
 * fused multiply-add with the (sa*sw, corrected-acc) grouping so the
 * portable path is bit-identical to the VNNI path's vector FMA.
 */
inline void
requant_row(const std::int32_t *acc, const QActivations &a,
            std::size_t i, const QMatrix &w, std::size_t j0,
            std::size_t jrem, float *crow)
{
    const float sa = a.scale(i);
    const std::int32_t za = a.zero_point(i);
    for (std::size_t j = 0; j < jrem; ++j) {
        const std::size_t ch = j0 + j;
        crow[ch] = std::fmaf(
            sa * w.scale(ch),
            static_cast<float>(acc[j] - za * w.row_sum(ch)),
            crow[ch]);
    }
}

#ifdef VOYAGER_QGEMM_VNNI

/**
 * Vectorized requantize of one 16-channel accumulator for batch row
 * i: subtract this row's zero-point correction (za * weight row
 * sums), convert to float, fused-multiply-add by the per-channel
 * sa*sw into the output row. The mask handles the ragged n edge
 * (masked loads/stores neither read nor fault masked lanes).
 */
inline void
requant_zmm(__m512i acc, std::int32_t za, float sa, __m512i rs,
            __m512 sw, __mmask16 mask, float *cptr)
{
    const __m512i corr =
        _mm512_mullo_epi32(_mm512_set1_epi32(za), rs);
    const __m512 scale = _mm512_mul_ps(_mm512_set1_ps(sa), sw);
    // Zero-masked convert: the unmasked intrinsic's undefined
    // pass-through operand trips GCC 12's -Wmaybe-uninitialized.
    const __m512 f =
        _mm512_maskz_cvtepi32_ps(mask, _mm512_sub_epi32(acc, corr));
    const __m512 cv = _mm512_maskz_loadu_ps(mask, cptr);
    _mm512_mask_storeu_ps(cptr, mask,
                          _mm512_fmadd_ps(f, scale, cv));
}

void
qgemm_nt_kernel(const QActivations &a, const QMatrix &w, Matrix &c)
{
    const std::size_t m = a.rows;
    const std::size_t n = w.rows();
    const std::size_t kg = (a.cols + QKG - 1) / QKG;
    const std::int8_t *packed = w.packed();
    const std::size_t panel_bytes = kg * QNR * QKG;

    // Main loop: two adjacent 16-channel panels per pass, so every
    // activation broadcast feeds 32 output channels — halves the
    // load-port traffic per VNNI op vs the single-panel edge loop.
    std::size_t j0 = 0;
    for (; j0 + 2 * QNR <= n; j0 += 2 * QNR) {
        const std::int8_t *p0 = packed + (j0 / QNR) * panel_bytes;
        const std::int8_t *p1 = p0 + panel_bytes;
        const __m512i rs0 =
            _mm512_loadu_si512(w.row_sums_ptr() + j0);
        const __m512i rs1 =
            _mm512_loadu_si512(w.row_sums_ptr() + j0 + QNR);
        const __m512 sw0 = _mm512_loadu_ps(w.scales_ptr() + j0);
        const __m512 sw1 = _mm512_loadu_ps(w.scales_ptr() + j0 + QNR);
        std::size_t i0 = 0;
        for (; i0 + QMR <= m; i0 += QMR) {
            const std::uint8_t *a0 = a.row(i0);
            const std::uint8_t *a1 = a.row(i0 + 1);
            const std::uint8_t *a2 = a.row(i0 + 2);
            const std::uint8_t *a3 = a.row(i0 + 3);
            __m512i acc00 = _mm512_setzero_si512();
            __m512i acc01 = _mm512_setzero_si512();
            __m512i acc10 = _mm512_setzero_si512();
            __m512i acc11 = _mm512_setzero_si512();
            __m512i acc20 = _mm512_setzero_si512();
            __m512i acc21 = _mm512_setzero_si512();
            __m512i acc30 = _mm512_setzero_si512();
            __m512i acc31 = _mm512_setzero_si512();
            for (std::size_t g = 0; g < kg; ++g) {
                const __m512i bv0 = _mm512_loadu_si512(
                    p0 + g * QNR * QKG);
                const __m512i bv1 = _mm512_loadu_si512(
                    p1 + g * QNR * QKG);
                std::uint32_t w0, w1, w2, w3;
                std::memcpy(&w0, a0 + g * QKG, 4);
                std::memcpy(&w1, a1 + g * QKG, 4);
                std::memcpy(&w2, a2 + g * QKG, 4);
                std::memcpy(&w3, a3 + g * QKG, 4);
                const __m512i v0 =
                    _mm512_set1_epi32(static_cast<int>(w0));
                const __m512i v1 =
                    _mm512_set1_epi32(static_cast<int>(w1));
                const __m512i v2 =
                    _mm512_set1_epi32(static_cast<int>(w2));
                const __m512i v3 =
                    _mm512_set1_epi32(static_cast<int>(w3));
                acc00 = _mm512_dpbusd_epi32(acc00, v0, bv0);
                acc01 = _mm512_dpbusd_epi32(acc01, v0, bv1);
                acc10 = _mm512_dpbusd_epi32(acc10, v1, bv0);
                acc11 = _mm512_dpbusd_epi32(acc11, v1, bv1);
                acc20 = _mm512_dpbusd_epi32(acc20, v2, bv0);
                acc21 = _mm512_dpbusd_epi32(acc21, v2, bv1);
                acc30 = _mm512_dpbusd_epi32(acc30, v3, bv0);
                acc31 = _mm512_dpbusd_epi32(acc31, v3, bv1);
            }
            requant_zmm(acc00, a.zero_point(i0), a.scale(i0), rs0,
                        sw0, 0xffff, c.row(i0) + j0);
            requant_zmm(acc01, a.zero_point(i0), a.scale(i0), rs1,
                        sw1, 0xffff, c.row(i0) + j0 + QNR);
            requant_zmm(acc10, a.zero_point(i0 + 1), a.scale(i0 + 1),
                        rs0, sw0, 0xffff, c.row(i0 + 1) + j0);
            requant_zmm(acc11, a.zero_point(i0 + 1), a.scale(i0 + 1),
                        rs1, sw1, 0xffff, c.row(i0 + 1) + j0 + QNR);
            requant_zmm(acc20, a.zero_point(i0 + 2), a.scale(i0 + 2),
                        rs0, sw0, 0xffff, c.row(i0 + 2) + j0);
            requant_zmm(acc21, a.zero_point(i0 + 2), a.scale(i0 + 2),
                        rs1, sw1, 0xffff, c.row(i0 + 2) + j0 + QNR);
            requant_zmm(acc30, a.zero_point(i0 + 3), a.scale(i0 + 3),
                        rs0, sw0, 0xffff, c.row(i0 + 3) + j0);
            requant_zmm(acc31, a.zero_point(i0 + 3), a.scale(i0 + 3),
                        rs1, sw1, 0xffff, c.row(i0 + 3) + j0 + QNR);
        }
        for (; i0 < m; ++i0) {  // ragged m tail, one row at a time
            const std::uint8_t *ar = a.row(i0);
            __m512i acc0 = _mm512_setzero_si512();
            __m512i acc1 = _mm512_setzero_si512();
            for (std::size_t g = 0; g < kg; ++g) {
                const __m512i bv0 = _mm512_loadu_si512(
                    p0 + g * QNR * QKG);
                const __m512i bv1 = _mm512_loadu_si512(
                    p1 + g * QNR * QKG);
                std::uint32_t wq;
                std::memcpy(&wq, ar + g * QKG, 4);
                const __m512i v =
                    _mm512_set1_epi32(static_cast<int>(wq));
                acc0 = _mm512_dpbusd_epi32(acc0, v, bv0);
                acc1 = _mm512_dpbusd_epi32(acc1, v, bv1);
            }
            requant_zmm(acc0, a.zero_point(i0), a.scale(i0), rs0, sw0,
                        0xffff, c.row(i0) + j0);
            requant_zmm(acc1, a.zero_point(i0), a.scale(i0), rs1, sw1,
                        0xffff, c.row(i0) + j0 + QNR);
        }
    }

    // Edge loop: at most one full panel plus a ragged (<16) tail.
    for (; j0 < n; j0 += QNR) {
        const std::int8_t *panel =
            packed + (j0 / QNR) * kg * QNR * QKG;
        const std::size_t jrem = std::min(QNR, n - j0);
        const auto mask = static_cast<__mmask16>(
            jrem == QNR ? 0xffffu : (1u << jrem) - 1u);
        // Per-tile weight constants; the requantize folds in each
        // batch row's dynamic scale/zero-point.
        const __m512i rs = _mm512_maskz_loadu_epi32(
            mask, w.row_sums_ptr() + j0);
        const __m512 sw =
            _mm512_maskz_loadu_ps(mask, w.scales_ptr() + j0);
        std::size_t i0 = 0;
        for (; i0 + QMR <= m; i0 += QMR) {
            const std::uint8_t *a0 = a.row(i0);
            const std::uint8_t *a1 = a.row(i0 + 1);
            const std::uint8_t *a2 = a.row(i0 + 2);
            const std::uint8_t *a3 = a.row(i0 + 3);
            __m512i acc0 = _mm512_setzero_si512();
            __m512i acc1 = _mm512_setzero_si512();
            __m512i acc2 = _mm512_setzero_si512();
            __m512i acc3 = _mm512_setzero_si512();
            for (std::size_t g = 0; g < kg; ++g) {
                const __m512i bv = _mm512_loadu_si512(
                    panel + g * QNR * QKG);
                std::uint32_t w0, w1, w2, w3;
                std::memcpy(&w0, a0 + g * QKG, 4);
                std::memcpy(&w1, a1 + g * QKG, 4);
                std::memcpy(&w2, a2 + g * QKG, 4);
                std::memcpy(&w3, a3 + g * QKG, 4);
                acc0 = _mm512_dpbusd_epi32(
                    acc0, _mm512_set1_epi32(static_cast<int>(w0)), bv);
                acc1 = _mm512_dpbusd_epi32(
                    acc1, _mm512_set1_epi32(static_cast<int>(w1)), bv);
                acc2 = _mm512_dpbusd_epi32(
                    acc2, _mm512_set1_epi32(static_cast<int>(w2)), bv);
                acc3 = _mm512_dpbusd_epi32(
                    acc3, _mm512_set1_epi32(static_cast<int>(w3)), bv);
            }
            requant_zmm(acc0, a.zero_point(i0), a.scale(i0), rs, sw,
                        mask, c.row(i0) + j0);
            requant_zmm(acc1, a.zero_point(i0 + 1), a.scale(i0 + 1),
                        rs, sw, mask, c.row(i0 + 1) + j0);
            requant_zmm(acc2, a.zero_point(i0 + 2), a.scale(i0 + 2),
                        rs, sw, mask, c.row(i0 + 2) + j0);
            requant_zmm(acc3, a.zero_point(i0 + 3), a.scale(i0 + 3),
                        rs, sw, mask, c.row(i0 + 3) + j0);
        }
        for (; i0 < m; ++i0) {  // ragged m tail, one row at a time
            const std::uint8_t *ar = a.row(i0);
            __m512i acc = _mm512_setzero_si512();
            for (std::size_t g = 0; g < kg; ++g) {
                const __m512i bv = _mm512_loadu_si512(
                    panel + g * QNR * QKG);
                std::uint32_t wq;
                std::memcpy(&wq, ar + g * QKG, 4);
                acc = _mm512_dpbusd_epi32(
                    acc, _mm512_set1_epi32(static_cast<int>(wq)), bv);
            }
            requant_zmm(acc, a.zero_point(i0), a.scale(i0), rs, sw,
                        mask, c.row(i0) + j0);
        }
    }
}

#else  // portable integer-exact fallback

void
qgemm_nt_kernel(const QActivations &a, const QMatrix &w, Matrix &c)
{
    const std::size_t m = a.rows;
    const std::size_t k = a.cols;
    const std::size_t n = w.rows();
    std::int32_t acc[QNR];
    for (std::size_t j0 = 0; j0 < n; j0 += QNR) {
        const std::size_t jrem = std::min(QNR, n - j0);
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint8_t *ar = a.row(i);
            for (std::size_t j = 0; j < jrem; ++j) {
                const std::int8_t *wr = w.row(j0 + j);
                std::int32_t s = 0;
                for (std::size_t p = 0; p < k; ++p)
                    s += static_cast<std::int32_t>(ar[p]) *
                         static_cast<std::int32_t>(wr[p]);
                acc[j] = s;
            }
            requant_row(acc, a, i, w, j0, jrem, c.row(i));
        }
    }
}

#endif

}  // namespace

void
qgemm_nt(const QActivations &a, const QMatrix &w, Matrix &c)
{
    const std::size_t m = a.rows;
    const std::size_t k = a.cols;
    const std::size_t n = w.rows();
    assert(k == w.cols());
    assert(c.rows() == m && c.cols() == n);
    // int32 accumulation headroom: max |u8 * s8| = 32,640 per step.
    assert(k < 65536);
    if (m == 0 || n == 0 || k == 0)
        return;
    w.pack();
    ScopedOpTimer timer(op_stats().qgemm,
                        2ull * m * n * k);
    qgemm_nt_kernel(a, w, c);
}

void
qgemm_nt_ref(const QActivations &a, const QMatrix &w, Matrix &c)
{
    const std::size_t m = a.rows;
    const std::size_t k = a.cols;
    const std::size_t n = w.rows();
    assert(k == w.cols());
    assert(c.rows() == m && c.cols() == n);
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint8_t *ar = a.row(i);
        const float sa = a.scale(i);
        const std::int32_t za = a.zero_point(i);
        float *cr = c.row(i);
        for (std::size_t j = 0; j < n; ++j) {
            const std::int8_t *wr = w.row(j);
            std::int64_t acc = 0;  // widened: the ref must not trap
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<std::int64_t>(ar[p]) *
                       static_cast<std::int64_t>(wr[p]);
            // Same fmaf grouping as the kernels: bit-identical when
            // the int32 accumulation there did not overflow.
            cr[j] = std::fmaf(
                sa * w.scale(j),
                static_cast<float>(acc -
                                   static_cast<std::int64_t>(za) *
                                       w.row_sum(j)),
                cr[j]);
        }
    }
}

}  // namespace voyager::nn
