#include "nn/qmatrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace voyager::nn {

namespace {

constexpr std::size_t QNR = 16;  ///< output channels per VNNI tile
constexpr std::size_t QKG = 4;   ///< k values per VNNI dot group

/**
 * The target's widest float vector: 16 lanes with AVX-512, 8 with
 * AVX, 4 with SSE. A GCC vector wider than the hardware's is split
 * into spills and scalar selects, so the lane count follows the
 * target rather than being fixed.
 */
#if defined(__AVX512F__)
constexpr std::size_t VL = 16;
#elif defined(__AVX__)
constexpr std::size_t VL = 8;
#else
constexpr std::size_t VL = 4;
#endif
/** VL floats; aligned(4) legalises unaligned loads. */
using vfloat = float
    __attribute__((vector_size(VL * sizeof(float)), aligned(4), may_alias));
/** Lane mask of a vfloat comparison: -1 where true, 0 where false. */
using vint = std::int32_t __attribute__((vector_size(VL * sizeof(float))));

/**
 * Shuffle mask of one butterfly step of a fold across the lanes: lane
 * l takes lane l ^ w. Steps w = VL/2, ..., 1 leave every lane holding
 * the fold of all VL. Constant once the caller's loop over w unrolls.
 */
template <std::size_t... L>
constexpr vint
butterfly(std::size_t w, std::index_sequence<L...>)
{
    return vint{static_cast<std::int32_t>(L ^ w)...};
}

}  // namespace

void
quantize_activations(const Matrix &x, QActivations &out)
{
    const std::size_t m = x.rows();
    const std::size_t k = x.cols();
    out.rows = m;
    out.cols = k;
    out.stride = (k + QKG - 1) / QKG * QKG;
    out.q.assign(m * out.stride, 0);
    out.scales.assign(m, 1.0f);
    out.zero_points.assign(m, 0);

    for (std::size_t r = 0; r < m; ++r) {
        const float *src = x.row(r);
        // Dynamic per-row range, forced to include 0 so the zero
        // point is exactly representable (padding bytes = za would
        // otherwise inject phantom values; padding with qa that
        // dequantizes to 0 is wrong too unless 0 is on the grid — so
        // put it on the grid). VL running minima and maxima, then a
        // butterfly fold across the lanes, give the serial scan's bits:
        // min and max are exact in any order, the select never picks
        // a NaN, and every lane starts at +0.0, which no later value
        // replaces with -0.0. A NaN is flagged on the side.
        vfloat vlo = {};
        vfloat vhi = {};
        vint vnan = {};
        std::size_t c = 0;
        for (; c + VL <= k; c += VL) {
            const vfloat v = *reinterpret_cast<const vfloat *>(src + c);
            vlo = v < vlo ? v : vlo;
            vhi = v > vhi ? v : vhi;
            vnan |= v != v;
        }
        for (std::size_t w = VL / 2; w > 0; w /= 2) {
            const vint swap = butterfly(w, std::make_index_sequence<VL>{});
            const vfloat lo2 = __builtin_shuffle(vlo, swap);
            const vfloat hi2 = __builtin_shuffle(vhi, swap);
            vlo = lo2 < vlo ? lo2 : vlo;
            vhi = hi2 > vhi ? hi2 : vhi;
            vnan |= __builtin_shuffle(vnan, swap);
        }
        float lo = vlo[0];
        float hi = vhi[0];
        bool has_nan = vnan[0] != 0;
        for (; c < k; ++c) {
            lo = std::min(lo, src[c]);
            hi = std::max(hi, src[c]);
            has_nan |= src[c] != src[c];
        }
        if (has_nan || std::isinf(lo) || std::isinf(hi)) {
            // No grid holds a NaN or an infinity. A NaN scale makes
            // every output this row feeds non-finite, as fp32 would,
            // and its bytes stay 0: no NaN meets the float->u8 cast.
            out.scales[r] = std::numeric_limits<float>::quiet_NaN();
            continue;
        }
        if (hi == lo)  // all-zero row: scale 1, zp 0, q already 0
            continue;
        const float scale = (hi - lo) / 255.0f;
        const float inv = 1.0f / scale;
        const auto zp = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(-lo * inv)), 0, 255);
        out.scales[r] = scale;
        out.zero_points[r] = zp;

        // Hot path (called per inference batch/timestep): branch-free
        // clamp-then-truncate, no libm rounding calls, so the loop
        // auto-vectorizes. After the clamp to [0, 255] the value is
        // non-negative, where +0.5-and-truncate is round-to-nearest.
        const auto zpf = static_cast<float>(zp);
        std::uint8_t *dst = out.q.data() + r * out.stride;
        for (std::size_t j = 0; j < k; ++j) {
            float f = src[j] * inv + zpf;
            f = std::min(std::max(f, 0.0f), 255.0f);
            dst[j] = static_cast<std::uint8_t>(f + 0.5f);
        }
        // Padding bytes stay 0; a 0 weight byte sits opposite them in
        // the packed panels, so they contribute exactly nothing.
    }
}

QMatrix
QMatrix::quantize(const Matrix &w, bool transpose)
{
    QMatrix out;
    out.rows_ = transpose ? w.cols() : w.rows();
    out.cols_ = transpose ? w.rows() : w.cols();
    out.q_.assign(out.rows_ * out.cols_, 0);
    out.scales_.assign(out.rows_, 0.0f);
    out.row_sums_.assign(out.rows_, 0);

    for (std::size_t r = 0; r < out.rows_; ++r) {
        float maxabs = 0.0f;
        for (std::size_t c = 0; c < out.cols_; ++c) {
            const float v = transpose ? w.at(c, r) : w.at(r, c);
            maxabs = std::max(maxabs, std::fabs(v));
        }
        if (maxabs == 0.0f)
            continue;  // scale 0: the row is exactly zero everywhere
        const float scale = maxabs / 127.0f;
        const float inv = 127.0f / maxabs;
        out.scales_[r] = scale;
        std::int8_t *dst = out.q_.data() + r * out.cols_;
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < out.cols_; ++c) {
            const float v = transpose ? w.at(c, r) : w.at(r, c);
            const auto q = std::clamp<std::int32_t>(
                static_cast<std::int32_t>(std::lround(v * inv)), -127,
                127);
            dst[c] = static_cast<std::int8_t>(q);
            sum += q;
        }
        out.row_sums_[r] = sum;
    }
    return out;
}

void
QMatrix::pack() const
{
    if (!packed_.empty() || rows_ == 0 || cols_ == 0)
        return;
    const std::size_t kg = (cols_ + QKG - 1) / QKG;
    const std::size_t tiles = (rows_ + QNR - 1) / QNR;
    packed_.assign(tiles * kg * QNR * QKG, 0);
    for (std::size_t jt = 0; jt < tiles; ++jt) {
        std::int8_t *panel = packed_.data() + jt * kg * QNR * QKG;
        const std::size_t jrem = std::min(QNR, rows_ - jt * QNR);
        for (std::size_t col = 0; col < jrem; ++col) {
            const std::int8_t *src = row(jt * QNR + col);
            for (std::size_t p = 0; p < cols_; ++p) {
                const std::size_t g = p / QKG;
                const std::size_t b = p % QKG;
                panel[(g * QNR + col) * QKG + b] = src[p];
            }
        }
    }
}

}  // namespace voyager::nn
