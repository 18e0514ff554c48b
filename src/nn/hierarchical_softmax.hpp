/**
 * @file
 * Two-level (hierarchical) softmax output head — the paper's §5.5
 * "paths to practicality" estimates a 3-4x training/inference
 * reduction from replacing the flat softmax over the page vocabulary
 * with a hierarchical one. Classes are partitioned into ~sqrt(V)
 * contiguous clusters; training computes one softmax over clusters
 * plus one softmax inside the target's cluster (O(sqrt(V)) instead of
 * O(V) per sample), and inference searches only the top clusters.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"
#include "util/random.hpp"

namespace voyager::nn {

/** Hierarchical softmax over `classes` outputs from `in`-dim inputs. */
class HierarchicalSoftmax
{
  public:
    /**
     * @param in input feature width
     * @param classes output vocabulary size
     * @param cluster_size classes per cluster; 0 = ceil(sqrt(classes))
     */
    HierarchicalSoftmax(std::size_t in, std::size_t classes, Rng &rng,
                        std::size_t cluster_size = 0);

    /**
     * Training step pieces: compute the mean two-level CE loss for
     * `targets` and the input gradient. Only the cluster head and the
     * target clusters' class rows participate (the whole point).
     *
     * @param x (batch, in) input features
     * @param targets one class per row
     * @param dx receives d(loss)/dx (overwritten, same shape as x)
     * @return mean loss
     */
    double loss_and_grad(const Matrix &x,
                         const std::vector<std::int32_t> &targets,
                         Matrix &dx);

    std::size_t classes() const { return classes_; }
    std::size_t clusters() const { return num_clusters_; }
    std::size_t cluster_size() const { return cluster_size_; }

    Param &cluster_weight() { return wc_; }
    Param &class_weight() { return wv_; }

    /** Multiply-accumulate count of one training sample, for the §5.5
     *  cost comparison against a flat softmax (in * classes). */
    std::size_t train_macs_per_sample() const
    {
        return in_ * (num_clusters_ + cluster_size_);
    }

  private:
    std::size_t cluster_of(std::int32_t cls) const
    {
        return static_cast<std::size_t>(cls) / cluster_size_;
    }

    std::size_t in_;
    std::size_t classes_;
    std::size_t cluster_size_;
    std::size_t num_clusters_;
    Param wc_;  ///< (in, clusters) cluster scores
    Param bc_;  ///< (1, clusters)
    Param wv_;  ///< (in, classes) within-cluster scores
    Param bv_;  ///< (1, classes)
};

}  // namespace voyager::nn
