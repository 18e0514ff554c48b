#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/ops.hpp"

namespace voyager::nn {

double
softmax_ce_loss(const Matrix &logits,
                const std::vector<std::int32_t> &labels, Matrix &dlogits)
{
    dlogits = logits;
    softmax_rows(dlogits);
    return softmax_ce_from_probs(dlogits, labels);
}

double
softmax_ce_from_probs(Matrix &probs,
                      const std::vector<std::int32_t> &labels)
{
    const std::size_t batch = probs.rows();
    const std::size_t classes = probs.cols();
    assert(labels.size() == batch);

    double loss = 0.0;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t r = 0; r < batch; ++r) {
        const auto y = labels[r];
        assert(y >= 0 && static_cast<std::size_t>(y) < classes);
        float *row = probs.row(r);
        loss -= std::log(std::max(row[y], 1e-12f));
        row[y] -= 1.0f;
        for (std::size_t c = 0; c < classes; ++c)
            row[c] *= inv_batch;
    }
    return loss / static_cast<double>(batch);
}

double
bce_multilabel_loss(const Matrix &logits,
                    const std::vector<std::vector<std::int32_t>> &labels,
                    Matrix &dlogits, float pos_weight)
{
    const std::size_t batch = logits.rows();
    const std::size_t classes = logits.cols();
    assert(labels.size() == batch);

    dlogits.resize(batch, classes);
    double loss = 0.0;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t r = 0; r < batch; ++r) {
        const float *z = logits.row(r);
        float *dz = dlogits.row(r);
        // All-negative pass, then patch the positives.
        for (std::size_t c = 0; c < classes; ++c) {
            const float s = 1.0f / (1.0f + std::exp(-z[c]));
            // -log(1 - sigmoid(z)) = z + log(1 + exp(-z)) stably:
            loss += std::max(z[c], 0.0f) +
                    std::log1p(std::exp(-std::fabs(z[c])));
            dz[c] = s * inv_batch;
        }
        for (const auto y : labels[r]) {
            assert(y >= 0 && static_cast<std::size_t>(y) < classes);
            // Swap the negative term -log(1-s) for pos_weight copies
            // of the positive term -log(s).
            const float neg_term =
                std::max(z[y], 0.0f) +
                std::log1p(std::exp(-std::fabs(z[y])));
            const float pos_term = neg_term - z[y];  // = -log(sigmoid)
            loss += pos_weight * pos_term - neg_term;
            const float s = 1.0f / (1.0f + std::exp(-z[y]));
            dz[y] = pos_weight * (s - 1.0f) * inv_batch;
        }
    }
    return loss / static_cast<double>(batch);
}

}  // namespace voyager::nn
