#include "core/compress.hpp"

#include <algorithm>

#include "nn/quantize.hpp"

namespace voyager::core {

CompressionReport
compress_model(VoyagerModel &model, const CompressConfig &cfg)
{
    CompressionReport rep;

    const auto embeddings = {
        &model.pc_embedding().param().value,
        &model.page_embedding().param().value,
        &model.offset_embedding().param().value,
    };

    nn::QuantError err;
    for (nn::Matrix *w : model.weights()) {
        const bool is_embedding =
            std::find(embeddings.begin(), embeddings.end(), w) !=
            embeddings.end();
        const double sparsity =
            is_embedding ? cfg.prune_sparsity : cfg.dense_layer_sparsity;
        nn::magnitude_prune(*w, sparsity);
        // Scale axis mirrors QMatrix: embedding tables and bias row
        // vectors per-row, 2-D weights per output channel.
        const nn::QuantAxis axis = is_embedding || w->rows() == 1
                                       ? nn::QuantAxis::Row
                                       : nn::QuantAxis::Col;
        err.merge(nn::quantize_dequantize_int8(*w, axis));
        const auto s32 = nn::measure_storage(*w, 32);
        const auto s8 = nn::measure_storage(*w, 8);
        rep.params += s32.elements;
        rep.dense_fp32_bytes += s32.elements * 4;
        rep.pruned_fp32_bytes += s32.sparse_bytes();
        rep.pruned_int8_bytes += s8.sparse_bytes();
    }
    rep.max_quant_error = err.max_err;
    rep.rms_quant_error = err.rms();
    std::uint64_t nonzero = 0;
    for (const nn::Matrix *w :
         const_cast<const VoyagerModel &>(model).weights())
        nonzero += nn::nonzero_count(*w);
    rep.sparsity = rep.params
        ? 1.0 - static_cast<double>(nonzero) /
                    static_cast<double>(rep.params)
        : 0.0;
    return rep;
}

std::uint64_t
temporal_prefetcher_bytes(std::uint64_t distinct_lines,
                          std::uint64_t bytes_per_entry)
{
    return distinct_lines * bytes_per_entry;
}

}  // namespace voyager::core
