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

/** Compression knobs (paper: 80% pruning, int8). */
struct CompressConfig
{
    double prune_sparsity = 0.8;
    /** Heads/LSTM kept denser than embeddings if set below sparsity. */
    double dense_layer_sparsity = 0.5;
};

/**
 * Prune + quantize the model in place and report storage at each
 * stage. Embedding tables are pruned at `prune_sparsity`; LSTM/head
 * weights at `dense_layer_sparsity` (they are small but sensitive).
 * Quantization is symmetric per-channel on the same int8 grid as
 * QMatrix — per-row for embeddings and bias vectors, per-output-
 * channel (column) for 2-D weights — so a QuantizedVoyagerModel
 * built from the compressed model executes the identical weights.
 */
CompressionReport compress_model(VoyagerModel &model,
                                 const CompressConfig &cfg = {});

/**
 * Storage a conventional temporal prefetcher needs for the same
 * stream, for the Fig. 17 comparison: entries x bytes-per-entry.
 */
std::uint64_t temporal_prefetcher_bytes(std::uint64_t distinct_lines,
                                        std::uint64_t bytes_per_entry = 12);

}  // namespace voyager::core
