#include "core/qmodel.hpp"

#include <algorithm>

namespace voyager::core {

using nn::Matrix;

QuantizedVoyagerModel::QuantizedVoyagerModel(const VoyagerModel &src)
    : cfg_(src.config()),
      pc_emb_(src.pc_embedding()),
      page_emb_(src.page_embedding()),
      offset_emb_(src.offset_embedding()),
      attn_(cfg_.num_experts, cfg_.attention_scale),
      page_lstm_(src.page_lstm()),
      offset_lstm_(src.offset_lstm()),
      page_head_(src.page_head()),
      offset_head_(src.offset_head())
{
}

void
QuantizedVoyagerModel::forward(const VoyagerBatch &batch)
{
    // Same input assembly as VoyagerModel::predict, with the
    // embeddings gathered and dequantized in int8 and the attention
    // in fp32.
    const BatchInputs &in = assemble_inputs(
        batch, cfg_, pc_emb_, page_emb_, offset_emb_, attn_);
    // Both LSTMs project the same rows: quantize them once.
    static thread_local nn::QActivations qx;
    static thread_local nn::QActivations qr;
    static thread_local Matrix proj;
    nn::quantize_with_residual(in.x, qx, qr);
    page_lstm_.project_inputs(qx, qr, proj);
    page_lstm_.forward(proj, in.steps, h_page_);
    offset_lstm_.project_inputs(qx, qr, proj);
    offset_lstm_.forward(proj, in.steps, h_offset_);
    page_head_.forward(h_page_, page_logits_);
    offset_head_.forward(h_offset_, offset_logits_);
}

std::vector<std::vector<TokenPrediction>>
QuantizedVoyagerModel::predict(const VoyagerBatch &batch, std::size_t k)
{
    forward(batch);
    return rank_token_predictions(page_logits_, offset_logits_,
                                  cfg_.use_bce(), k);
}

std::uint64_t
QuantizedVoyagerModel::int8_bytes() const
{
    return pc_emb_.int8_bytes() + page_emb_.int8_bytes() +
           offset_emb_.int8_bytes() + page_lstm_.int8_bytes() +
           offset_lstm_.int8_bytes() + page_head_.int8_bytes() +
           offset_head_.int8_bytes();
}

std::pair<float, float>
QuantizedVoyagerModel::weight_scale_range() const
{
    float lo = 0.0f;
    float hi = 0.0f;
    bool any = false;
    const auto fold = [&](const std::vector<float> &scales) {
        for (const float s : scales) {
            if (s == 0.0f)
                continue;  // all-zero (fully pruned) channel
            if (!any) {
                lo = hi = s;
                any = true;
            } else {
                lo = std::min(lo, s);
                hi = std::max(hi, s);
            }
        }
    };
    fold(pc_emb_.table().scales());
    fold(page_emb_.table().scales());
    fold(offset_emb_.table().scales());
    fold(page_lstm_.wx().scales());
    fold(page_lstm_.wh().scales());
    fold(offset_lstm_.wx().scales());
    fold(offset_lstm_.wh().scales());
    fold(page_head_.weight().scales());
    fold(offset_head_.weight().scales());
    return {lo, hi};
}

}  // namespace voyager::core
