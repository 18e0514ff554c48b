/**
 * @file
 * Reference helpers that tests use as fixtures or oracles: int8
 * dequantization, row argmax, the next-load oracle and the list of
 * rule-based prefetcher names.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
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

}  // namespace voyager::nn

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
