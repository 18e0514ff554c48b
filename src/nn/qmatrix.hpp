/**
 * @file
 * Quantized tensor types for the int8 inference engine (DESIGN.md
 * §5.13). Two representations, matching what AVX512-VNNI's
 * `vpdpbusd` (u8 x s8 -> s32) wants to consume:
 *
 *  - QMatrix: weights, signed int8 with a *symmetric per-row* scale
 *    (row = output channel; zero point is implicitly 0, so pruned
 *    zeros stay exactly zero). Carries precomputed per-row element
 *    sums for the activation zero-point correction and an optional
 *    packed layout for the qgemm microkernel.
 *  - QActivations: activations, unsigned int8 with *dynamic per-row*
 *    (per-sample) affine scale/zero-point chosen per forward call, so
 *    one outlier sample in a batch cannot coarsen every other row's
 *    grid.
 *
 * The requantization identity used throughout qops.cpp: with
 * activation a_i = sa_i*(qa - za_i) for batch row i and weight
 * w_j = sw_j*qw_j,
 *
 *   sum_k a_ik w_jk
 *       = sa_i*sw_j * (sum_k qa_ik qw_jk - za_i * sum_k qw_jk)
 *
 * so one int32 dot product plus the precomputed row sum recovers the
 * fp32 result exactly up to the quantization of the inputs.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace voyager::nn {

/** Unsigned-int8 affine-quantized activation matrix (row-major). */
struct QActivations
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    /** rows x kp values, each row zero-padded to kp = 4*ceil(k/4). */
    std::vector<std::uint8_t> q;
    /** Row stride (cols rounded up to a multiple of 4). */
    std::size_t stride = 0;
    /** Per-row affine grid (row = batch sample). */
    std::vector<float> scales;
    std::vector<std::int32_t> zero_points;

    const std::uint8_t *row(std::size_t r) const
    {
        return q.data() + r * stride;
    }
    float scale(std::size_t r) const { return scales[r]; }
    std::int32_t zero_point(std::size_t r) const
    {
        return zero_points[r];
    }
};

/**
 * Dynamically quantize `x` to u8 with one affine scale/zero-point per
 * row. Each row's range is forced to include 0 so its zero point is
 * exact (padding lanes then contribute nothing to qgemm). A row
 * holding a NaN or an infinity gets a NaN scale, zero point 0 and
 * all-zero bytes, so every qgemm output it feeds is NaN. A row whose
 * range is zero, or too small for 1/scale to be finite, gets scale 1,
 * zero point 0 and all-zero bytes. Buffers in `out` are reused across
 * calls.
 */
void quantize_activations(const Matrix &x, QActivations &out);

/**
 * Signed-int8 weight matrix with symmetric per-row scales. Rows are
 * output channels: a Linear/LSTM weight stored fp32 as (in, out) is
 * quantized with `transpose = true` into a (out, in) QMatrix so each
 * row carries one output channel at contiguous, per-channel scale —
 * exactly the B^T operand qgemm_nt consumes. Embedding tables
 * (vocab, dim) use `transpose = false`: one scale per token row.
 */
class QMatrix
{
  public:
    QMatrix() = default;

    /**
     * Quantize `w`. Per-row scale = max|row| / 127 (so the extreme
     * element maps to exactly ±127 and re-quantizing an already
     * quantize-dequantized matrix is the identity); all-zero rows get
     * scale 0 and contribute exactly 0 everywhere downstream. A row
     * holding a NaN or an infinity gets a NaN scale and zero bytes,
     * so every output it feeds is NaN.
     * @param transpose quantize per *column* of `w`, storing row r of
     *        the QMatrix as column r of `w` (weight layout (in, out)).
     */
    static QMatrix quantize(const Matrix &w, bool transpose);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    const std::int8_t *row(std::size_t r) const
    {
        return q_.data() + r * cols_;
    }
    float scale(std::size_t r) const { return scales_[r]; }
    std::int32_t row_sum(std::size_t r) const { return row_sums_[r]; }
    const std::vector<float> &scales() const { return scales_; }
    /** Contiguous per-row scales/sums for vectorized requantize. */
    const float *scales_ptr() const { return scales_.data(); }
    const std::int32_t *row_sums_ptr() const
    {
        return row_sums_.data();
    }

    /** int8 payload bytes: values plus per-row fp32 scales. */
    std::uint64_t bytes() const
    {
        return q_.size() + scales_.size() * sizeof(float);
    }

    /**
     * VNNI panel layout, built lazily by qgemm (or eagerly via
     * pack()): ceil(rows/16) tiles of 16 output channels, each tile
     * ceil(cols/4) groups of 4 k-values laid out [group][channel][4]
     * — one 64-byte zmm load per group. Ragged edges are zero-padded,
     * which is exact (0 weight annihilates any activation byte).
     */
    void pack() const;
    const std::int8_t *packed() const
    {
        return packed_.empty() ? nullptr : packed_.data();
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::int8_t> q_;          ///< row-major (rows, cols)
    std::vector<float> scales_;           ///< per row
    std::vector<std::int32_t> row_sums_;  ///< per row: sum_k q
    mutable std::vector<std::int8_t> packed_;
};

}  // namespace voyager::nn
