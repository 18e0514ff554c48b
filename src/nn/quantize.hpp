/**
 * @file
 * Model compression: magnitude pruning and symmetric per-channel
 * int8 quantization (paper §5.4: 80% pruning -> 5-7x, int8 -> 4x,
 * with <1% accuracy loss). Quantization here is quantize-dequantize
 * so the compressed model can be re-evaluated with the ordinary
 * float kernels; the grid is QMatrix's own (qmatrix.hpp), so the
 * int8 engine built from a compressed model executes the *same*
 * weights the float kernels see.
 */
#pragma once

#include <cstdint>

#include "nn/matrix.hpp"

namespace voyager::nn {

/** Zero out the smallest-|w| `sparsity` fraction of entries. */
void magnitude_prune(Matrix &m, double sparsity);

/** Number of nonzero entries. */
std::uint64_t nonzero_count(const Matrix &m);

/** Which axis carries the per-channel quantization scales. */
enum class QuantAxis
{
    Row,  ///< one scale per row (embedding tables, bias vectors)
    Col,  ///< one scale per column = per output channel (2-D weights)
};

/** Error introduced by one quantize-dequantize pass. */
struct QuantError
{
    float max_err = 0.0f;       ///< max absolute elementwise error
    double sum_sq = 0.0;        ///< sum of squared errors
    std::uint64_t elements = 0; ///< elements covered (incl. zeros)

    /** Root-mean-square error over all covered elements. */
    double rms() const;

    /** Fold another tensor's error into this (for model totals). */
    void merge(const QuantError &o);
};

/**
 * Symmetric per-channel int8 quantize-dequantize: each channel
 * (row or column per `axis`) snaps to the grid of
 * QMatrix::quantize, scale * [-127, 127] with scale = max|channel| /
 * 127, so re-quantizing the result is the identity. Zeros are left
 * untouched, so pruned zeros keep their bits.
 * @return max and RMS error introduced.
 */
QuantError quantize_dequantize_int8(Matrix &m,
                                    QuantAxis axis = QuantAxis::Row);

/** Storage accounting for a (possibly pruned/quantized) tensor. */
struct TensorStorage
{
    std::uint64_t elements = 0;
    std::uint64_t nonzero = 0;
    std::uint32_t bits_per_weight = 32;

    /** Dense storage at the given precision (sub-byte tails billed). */
    std::uint64_t dense_bytes() const
    {
        return (elements * bits_per_weight + 7) / 8;
    }
    /**
     * Sparse storage: values at `bits_per_weight` plus a 1-bit
     * presence bitmap (CSR-style bitmap encoding). Both terms round
     * up: a trailing partial byte still occupies a whole byte.
     */
    std::uint64_t
    sparse_bytes() const
    {
        return (nonzero * bits_per_weight + 7) / 8 + (elements + 7) / 8;
    }
};

/** Measure a tensor's storage at a given precision. */
TensorStorage measure_storage(const Matrix &m,
                              std::uint32_t bits_per_weight = 32);

}  // namespace voyager::nn
