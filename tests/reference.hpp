/**
 * @file
 * Reference helpers that tests use as fixtures or oracles: int8
 * dequantization, row argmax, the libm sigmoid and full-sort top-k,
 * the materialised ranking head, the next-load oracle and the list of
 * rule-based prefetcher names.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "nn/matrix.hpp"
#include "nn/ops.hpp"
#include "nn/qmatrix.hpp"
#include "sim/prefetcher.hpp"

namespace voyager::nn {

/** Dequantize `q` back to fp32 in its (rows, cols) layout. */
inline Matrix
dequantize(const QMatrix &q)
{
    Matrix out(q.rows(), q.cols());
    for (std::size_t r = 0; r < q.rows(); ++r) {
        const std::int8_t *src = q.row(r);
        const float s = q.scale(r);
        float *dst = out.row(r);
        for (std::size_t c = 0; c < q.cols(); ++c)
            dst[c] = static_cast<float>(src[c]) * s;
    }
    return out;
}

/** Row-wise argmax of a logits/probability matrix. */
inline std::vector<std::int32_t>
argmax_rows(const Matrix &m)
{
    std::vector<std::int32_t> out(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *row = m.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < m.cols(); ++c)
            if (row[c] > row[best])
                best = c;
        out[r] = static_cast<std::int32_t>(best);
    }
    return out;
}

/** Elementwise libm logistic sigmoid in place. */
inline void
sigmoid_inplace(Matrix &m)
{
    float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        d[i] = 1.0f / (1.0f + std::exp(-d[i]));
}

/** Indices of the top-k entries of one row, descending. */
inline std::vector<std::int32_t>
topk_row(const Matrix &m, std::size_t row, std::size_t k)
{
    const float *r = m.row(row);
    std::vector<std::int32_t> idx(m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c)
        idx[c] = static_cast<std::int32_t>(c);
    const std::size_t kk = std::min(k, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                      [r](std::int32_t a, std::int32_t b) {
                          return r[a] > r[b];
                      });
    idx.resize(kk);
    return idx;
}

}  // namespace voyager::nn

namespace voyager::core {

/**
 * The materialised ranking head that core::rank_token_predictions
 * replaced: libm softmax (or sigmoid) over every column of copies of
 * both logit matrices, a top-k per head, and a sort of the k x k
 * joint products. The oracle the fused head is compared with.
 */
inline std::vector<std::vector<TokenPrediction>>
rank_token_predictions_ref(const nn::Matrix &page_logits,
                           const nn::Matrix &offset_logits, bool use_bce,
                           std::size_t k)
{
    nn::Matrix page_probs = page_logits;
    nn::Matrix offset_probs = offset_logits;
    if (use_bce) {
        nn::sigmoid_inplace(page_probs);
        nn::sigmoid_inplace(offset_probs);
    } else {
        nn::softmax_rows(page_probs);
        nn::softmax_rows(offset_probs);
    }

    std::vector<std::vector<TokenPrediction>> out(page_probs.rows());
    for (std::size_t b = 0; b < page_probs.rows(); ++b) {
        const auto top_pages = nn::topk_row(page_probs, b, k);
        const auto top_offsets = nn::topk_row(offset_probs, b, k);
        std::vector<TokenPrediction> cands;
        cands.reserve(top_pages.size() * top_offsets.size());
        for (const auto p : top_pages) {
            for (const auto o : top_offsets) {
                cands.push_back(
                    {p, o,
                     page_probs.at(b, static_cast<std::size_t>(p)) *
                         offset_probs.at(b, static_cast<std::size_t>(o))});
            }
        }
        std::sort(cands.begin(), cands.end(),
                  [](const TokenPrediction &a, const TokenPrediction &c) {
                      return a.prob > c.prob;
                  });
        if (cands.size() > k)
            cands.resize(k);
        out[b] = std::move(cands);
    }
    return out;
}

}  // namespace voyager::core

namespace voyager::prefetch {

/** Names make_prefetcher accepts (excluding "none"). */
inline const std::vector<std::string> &
rule_based_names()
{
    static const std::vector<std::string> names = {
        "stms", "isb", "domino", "bo", "sms", "ip_stride", "next_line",
        "stream_group", "isb+bo",
    };
    return names;
}

/**
 * Oracle predictions over an LLC stream: for access i, the lines of
 * the next `degree` *load* accesses after i (the paper's
 * benchmark-selection oracle). Feed into sim::ReplayPrefetcher.
 */
inline std::vector<std::vector<Addr>>
oracle_predictions(const std::vector<sim::LlcAccess> &stream,
                   std::uint32_t degree = 1)
{
    std::vector<std::vector<Addr>> preds(stream.size());
    std::vector<std::size_t> next_load_idx(stream.size(),
                                           stream.size());
    std::size_t next = stream.size();
    for (std::size_t i = stream.size(); i-- > 0;) {
        next_load_idx[i] = next;
        if (stream[i].is_load)
            next = i;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
        std::size_t j = next_load_idx[i];
        for (std::uint32_t k = 0; k < degree && j < stream.size();
             ++k, j = next_load_idx[j]) {
            preds[i].push_back(stream[j].line);
        }
    }
    return preds;
}

}  // namespace voyager::prefetch
