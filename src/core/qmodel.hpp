/**
 * @file
 * Int8 inference engine for Voyager (DESIGN.md §5.13): a frozen,
 * inference-only snapshot of a trained VoyagerModel whose embeddings,
 * LSTM gate GEMMs and linear heads execute in int8 (qgemm_nt on
 * per-channel QMatrix weights), with the tiny MoE attention and the
 * elementwise tails left fp32. Exposes the same `predict` interface
 * as VoyagerModel, so the online trainer's prediction path and the
 * sim replay run unmodified on int8.
 *
 * Built from an already-compressed model (compress_model uses the
 * same symmetric per-channel grid as QMatrix), the int8 weights are
 * *bit-identical* to what the fp32 kernels dequantize — the only
 * numerical difference between the two paths is the dynamic
 * activation quantization.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "nn/qlayers.hpp"

namespace voyager::core {

/** Inference-only int8 snapshot of a trained VoyagerModel. */
class QuantizedVoyagerModel
{
  public:
    /** Quantize a trained (typically compressed) model's weights. */
    explicit QuantizedVoyagerModel(const VoyagerModel &src);

    /**
     * Top-k (page, offset) candidates per sample, by joint prob. Each
     * distinct token's LSTM input projection runs once
     * (assemble_inputs), then only the recurrence runs per step.
     * @throws std::invalid_argument naming the field on a malformed
     *         batch (as VoyagerModel::predict)
     */
    std::vector<std::vector<TokenPrediction>>
    predict(const VoyagerBatch &batch, std::size_t k);

    const VoyagerConfig &config() const { return cfg_; }

    /** Total int8 payload bytes (values + scales + fp32 biases). */
    std::uint64_t int8_bytes() const;

    /**
     * (min, max) over all nonzero per-channel weight scales — the
     * `compress.int8.scale_*` observability stats.
     */
    std::pair<float, float> weight_scale_range() const;

  private:
    /** Run the network; fills the logits caches. */
    void forward(const VoyagerBatch &batch);

    VoyagerConfig cfg_;
    nn::QuantizedEmbedding pc_emb_;
    nn::QuantizedEmbedding page_emb_;
    nn::QuantizedEmbedding offset_emb_;
    nn::MoeAttention attn_;  ///< fp32, stateless at inference
    nn::QuantizedLstm page_lstm_;
    nn::QuantizedLstm offset_lstm_;
    nn::QuantizedLinear page_head_;
    nn::QuantizedLinear offset_head_;

    // Forward caches.
    nn::Matrix h_page_;
    nn::Matrix h_offset_;
    nn::Matrix page_logits_;
    nn::Matrix offset_logits_;
};

}  // namespace voyager::core
