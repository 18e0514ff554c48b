#include "nn/quantize.hpp"

#include "nn/qmatrix.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace voyager::nn {

void
magnitude_prune(Matrix &m, double sparsity)
{
    if (sparsity <= 0.0 || m.size() == 0)
        return;
    std::vector<float> mags(m.size());
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        mags[i] = std::fabs(d[i]);
    auto k = static_cast<std::size_t>(
        sparsity * static_cast<double>(m.size()));
    k = std::min(k, m.size() - 1);
    std::nth_element(mags.begin(), mags.begin() + k, mags.end());
    const float threshold = mags[k];
    float *w = m.data();
    std::size_t zeroed = 0;
    for (std::size_t i = 0; i < m.size() && zeroed < k; ++i) {
        if (std::fabs(w[i]) <= threshold && w[i] != 0.0f) {
            w[i] = 0.0f;
            ++zeroed;
        }
    }
}

std::uint64_t
nonzero_count(const Matrix &m)
{
    std::uint64_t n = 0;
    const float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        n += d[i] != 0.0f;
    return n;
}

double
QuantError::rms() const
{
    return elements
        ? std::sqrt(sum_sq / static_cast<double>(elements))
        : 0.0;
}

void
QuantError::merge(const QuantError &o)
{
    max_err = std::max(max_err, o.max_err);
    sum_sq += o.sum_sq;
    elements += o.elements;
}

QuantError
quantize_dequantize_int8(Matrix &m, QuantAxis axis)
{
    QuantError err;
    err.elements = m.size();
    const bool by_col = axis == QuantAxis::Col;
    // QMatrix row ch is channel ch: row ch of m, or column ch by_col.
    const QMatrix q = QMatrix::quantize(m, by_col);
    for (std::size_t ch = 0; ch < q.rows(); ++ch) {
        const std::int8_t *qrow = q.row(ch);
        for (std::size_t i = 0; i < q.cols(); ++i) {
            float &w = by_col ? m.at(i, ch) : m.at(ch, i);
            if (w == 0.0f)
                continue;  // pruned zeros keep their bits, sign too
            const float deq = static_cast<float>(qrow[i]) * q.scale(ch);
            const float e = std::fabs(deq - w);
            err.max_err = std::max(err.max_err, e);
            err.sum_sq += static_cast<double>(e) * e;
            w = deq;
        }
    }
    return err;
}

TensorStorage
measure_storage(const Matrix &m, std::uint32_t bits_per_weight)
{
    TensorStorage s;
    s.elements = m.size();
    s.nonzero = nonzero_count(m);
    s.bits_per_weight = bits_per_weight;
    return s;
}

}  // namespace voyager::nn
