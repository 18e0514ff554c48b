#include "nn/hierarchical_softmax.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/layers.hpp"
#include "nn/ops.hpp"

namespace voyager::nn {

namespace {

/** Softmax over a contiguous span; returns log of the normalizer. */
void
softmax_span(float *v, std::size_t n)
{
    float mx = v[0];
    for (std::size_t i = 1; i < n; ++i)
        mx = std::max(mx, v[i]);
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::exp(v[i] - mx);
        sum += v[i];
    }
    const float inv = 1.0f / sum;
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= inv;
}

}  // namespace

HierarchicalSoftmax::HierarchicalSoftmax(std::size_t in,
                                         std::size_t classes, Rng &rng,
                                         std::size_t cluster_size)
    : in_(in), classes_(classes),
      cluster_size_(cluster_size != 0
                        ? cluster_size
                        : static_cast<std::size_t>(std::ceil(
                              std::sqrt(static_cast<double>(classes))))),
      num_clusters_((classes + cluster_size_ - 1) / cluster_size_),
      wc_(in, num_clusters_), bc_(1, num_clusters_), wv_(in, classes),
      bv_(1, classes)
{
    assert(classes_ > 0 && in_ > 0);
    glorot_init(wc_.value, rng);
    glorot_init(wv_.value, rng);
}

double
HierarchicalSoftmax::loss_and_grad(
    const Matrix &x, const std::vector<std::int32_t> &targets, Matrix &dx)
{
    const std::size_t batch = x.rows();
    assert(x.cols() == in_ && targets.size() == batch);
    dx.resize(batch, in_);

    double loss = 0.0;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    std::vector<float> cluster_scores(num_clusters_);
    std::vector<float> class_scores(cluster_size_);

    for (std::size_t r = 0; r < batch; ++r) {
        const float *xr = x.row(r);
        float *dxr = dx.row(r);
        const auto target = targets[r];
        assert(target >= 0 &&
               static_cast<std::size_t>(target) < classes_);
        const std::size_t tc = cluster_of(target);
        const std::size_t base = tc * cluster_size_;
        const std::size_t span =
            std::min(cluster_size_, classes_ - base);
        const std::size_t within = static_cast<std::size_t>(target) -
                                   base;

        // Level 1: cluster scores (dense in clusters, O(in*sqrt V)).
        for (std::size_t c = 0; c < num_clusters_; ++c) {
            float acc = bc_.value.at(0, c);
            const float *w = wc_.value.data() + c;  // column c
            for (std::size_t j = 0; j < in_; ++j)
                acc += xr[j] * w[j * num_clusters_];
            cluster_scores[c] = acc;
        }
        softmax_span(cluster_scores.data(), num_clusters_);
        loss -= std::log(std::max(cluster_scores[tc], 1e-12f));

        // Level 2: scores within the target cluster only.
        for (std::size_t c = 0; c < span; ++c) {
            float acc = bv_.value.at(0, base + c);
            const float *w = wv_.value.data() + base + c;
            for (std::size_t j = 0; j < in_; ++j)
                acc += xr[j] * w[j * classes_];
            class_scores[c] = acc;
        }
        softmax_span(class_scores.data(), span);
        loss -= std::log(std::max(class_scores[within], 1e-12f));

        // Backward: softmax-CE gradients at both levels.
        for (std::size_t j = 0; j < in_; ++j)
            dxr[j] = 0.0f;
        for (std::size_t c = 0; c < num_clusters_; ++c) {
            const float g =
                (cluster_scores[c] - (c == tc ? 1.0f : 0.0f)) *
                inv_batch;
            bc_.grad.at(0, c) += g;
            float *wg = wc_.grad.data() + c;
            const float *w = wc_.value.data() + c;
            for (std::size_t j = 0; j < in_; ++j) {
                wg[j * num_clusters_] += g * xr[j];
                dxr[j] += g * w[j * num_clusters_];
            }
        }
        for (std::size_t c = 0; c < span; ++c) {
            const float g =
                (class_scores[c] - (c == within ? 1.0f : 0.0f)) *
                inv_batch;
            bv_.grad.at(0, base + c) += g;
            float *wg = wv_.grad.data() + base + c;
            const float *w = wv_.value.data() + base + c;
            for (std::size_t j = 0; j < in_; ++j) {
                wg[j * classes_] += g * xr[j];
                dxr[j] += g * w[j * classes_];
            }
        }
    }
    return loss / static_cast<double>(batch);
}

}  // namespace voyager::nn
