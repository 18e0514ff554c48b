/**
 * @file
 * Reference helpers that tests use as fixtures or oracles: int8
 * dequantization, the scalar activation quantizer and the per-LSTM
 * int8 input projection, row argmax, the libm sigmoid and full-sort
 * top-k, the materialised ranking head, the next-load oracle and the
 * list of rule-based prefetcher names.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "nn/matrix.hpp"
#include "nn/ops.hpp"
#include "nn/qlayers.hpp"
#include "nn/qmatrix.hpp"
#include "nn/qops.hpp"
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

/**
 * The serial activation quantizer that nn::quantize_activations
 * vectorised: one scalar min/max chain per row, then the same grid
 * and rounding. A row holding a NaN or an infinity gets a NaN scale,
 * zero point 0 and all-zero bytes.
 */
inline void
quantize_activations_ref(const Matrix &x, QActivations &out)
{
    const std::size_t m = x.rows();
    const std::size_t k = x.cols();
    out.rows = m;
    out.cols = k;
    out.stride = (k + 3) / 4 * 4;
    out.q.assign(m * out.stride, 0);
    out.scales.assign(m, 1.0f);
    out.zero_points.assign(m, 0);
    for (std::size_t r = 0; r < m; ++r) {
        const float *src = x.row(r);
        float lo = 0.0f;
        float hi = 0.0f;
        bool finite = true;
        for (std::size_t j = 0; j < k; ++j) {
            lo = std::min(lo, src[j]);
            hi = std::max(hi, src[j]);
            finite = finite && std::isfinite(src[j]);
        }
        if (!finite) {
            out.scales[r] = std::numeric_limits<float>::quiet_NaN();
            continue;
        }
        // A zero range, or one too small for a finite 1/scale, takes
        // the all-zero row's grid.
        const float scale = (hi - lo) / 255.0f;
        const float inv = 1.0f / scale;
        if (std::isinf(inv))
            continue;
        const auto zp = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(-lo * inv)), 0, 255);
        out.scales[r] = scale;
        out.zero_points[r] = zp;
        const auto zpf = static_cast<float>(zp);
        std::uint8_t *dst = out.q.data() + r * out.stride;
        for (std::size_t j = 0; j < k; ++j) {
            float f = src[j] * inv + zpf;
            f = std::min(std::max(f, 0.0f), 255.0f);
            dst[j] = static_cast<std::uint8_t>(f + 0.5f);
        }
    }
}

/**
 * The int8 LSTM input projection as each LSTM ran it before the
 * shared quantize_with_residual: quantize x (scalar oracle), run its
 * qgemm, take the fp32 residual x - dequant(qx), quantize that and
 * run its qgemm into the same zeroed proj (rows, 4H).
 */
inline void
project_inputs_ref(const QuantizedLstm &lstm, const Matrix &x,
                   Matrix &proj)
{
    QActivations qx;
    QActivations qr;
    quantize_activations_ref(x, qx);
    proj.resize(x.rows(), 4 * lstm.hidden());
    qgemm_nt(qx, lstm.wx(), proj);
    Matrix r(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const float s = qx.scale(i);
        const auto zp = static_cast<float>(qx.zero_point(i));
        const std::uint8_t *q = qx.row(i);
        for (std::size_t j = 0; j < x.cols(); ++j)
            r.at(i, j) =
                x.at(i, j) - (static_cast<float>(q[j]) - zp) * s;
    }
    quantize_activations_ref(r, qr);
    qgemm_nt(qr, lstm.wx(), proj);
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
