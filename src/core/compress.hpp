/**
 * @file
 * Model compression pipeline (paper §5.4): magnitude-prune 80% of the
 * weights, quantize to int8, and account the storage at each stage.
 * The compressed model keeps running through the ordinary float
 * kernels (quantize-dequantize), so accuracy after compression can be
 * re-measured directly.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace voyager::core {

/** Storage accounting of one model at each compression stage. */
struct CompressionReport
{
    std::uint64_t params = 0;
    std::uint64_t dense_fp32_bytes = 0;
    std::uint64_t pruned_fp32_bytes = 0;     ///< sparse, 32-bit values
    std::uint64_t pruned_int8_bytes = 0;     ///< sparse, 8-bit values
    double sparsity = 0.0;                   ///< fraction pruned
    float max_quant_error = 0.0f;
    /** RMS quantization error over every weight element. */
    double rms_quant_error = 0.0;
};

/** Fraction of each embedding table pruned (paper: 80%). */
inline constexpr double kPruneSparsity = 0.8;
/** Fraction of each LSTM/head weight pruned: they are small but
 *  sensitive, so they are kept denser than the embeddings. */
inline constexpr double kDenseLayerSparsity = 0.5;

/**
 * Prune + quantize the model in place and report storage at each
 * stage. Embedding tables are pruned at kPruneSparsity; LSTM/head
 * weights at kDenseLayerSparsity.
 * Quantization is symmetric per-channel on the same int8 grid as
 * QMatrix — per-row for embeddings and bias vectors, per-output-
 * channel (column) for 2-D weights — so a QuantizedVoyagerModel
 * built from the compressed model executes the identical weights.
 */
CompressionReport compress_model(VoyagerModel &model);

/**
 * Storage a conventional temporal prefetcher needs for the same
 * stream, for the Fig. 17 comparison: 12 bytes per distinct line.
 */
std::uint64_t temporal_prefetcher_bytes(std::uint64_t distinct_lines);

}  // namespace voyager::core
