/**
 * @file
 * Tests for the §5.5 "paths to practicality" hierarchical softmax
 * head. The distilled tables that serve §5.5's practical prefetcher
 * are tested in tabular_test.cpp.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "nn/adam.hpp"
#include "nn/hierarchical_softmax.hpp"
#include "nn/layers.hpp"

namespace voyager {
namespace {

TEST(HierSoftmax, GeometryDefaultsToSqrt)
{
    Rng rng(1);
    nn::HierarchicalSoftmax h(8, 100, rng);
    EXPECT_EQ(h.cluster_size(), 10u);
    EXPECT_EQ(h.clusters(), 10u);
    EXPECT_EQ(h.classes(), 100u);
    // Training cost per sample is O(in * 2 sqrt(V)) vs in * V flat.
    EXPECT_LT(h.train_macs_per_sample(), 8u * 100u / 2u);
}

TEST(HierSoftmax, HandlesNonSquareVocab)
{
    Rng rng(2);
    nn::HierarchicalSoftmax h(4, 37, rng, 8);
    EXPECT_EQ(h.clusters(), 5u);  // ceil(37/8)
    nn::Matrix x(2, 4, 0.5f);
    nn::Matrix dx;
    // Targets in the last, short cluster (classes 32..36).
    const double loss = h.loss_and_grad(x, {33, 36}, dx);
    EXPECT_GT(loss, 0.0);
    EXPECT_TRUE(std::isfinite(loss));
}

TEST(HierSoftmax, LossAtInitIsTwoLevelUniform)
{
    Rng rng(3);
    nn::HierarchicalSoftmax h(6, 64, rng, 8);
    // Zero input: scores = biases = 0 -> uniform at both levels.
    nn::Matrix x(1, 6);
    nn::Matrix dx;
    const double loss = h.loss_and_grad(x, {17}, dx);
    EXPECT_NEAR(loss, std::log(8.0) + std::log(8.0), 1e-4);
}

TEST(HierSoftmax, GradientMatchesNumeric)
{
    Rng rng(4);
    nn::HierarchicalSoftmax h(5, 12, rng, 4);
    nn::Param x(2, 5);
    nn::uniform_init(x.value, 1.0f, rng);
    const std::vector<std::int32_t> targets = {3, 9};

    auto loss_fn = [&]() {
        nn::Matrix dx;
        return h.loss_and_grad(x.value, targets, dx);
    };
    // Analytic input gradient (weight grads accumulate; zero them by
    // re-creating fresh grads each call is unnecessary for dx check).
    nn::Matrix dx;
    h.loss_and_grad(x.value, targets, dx);
    x.grad = dx;
    EXPECT_LT(nn::gradient_check(x, loss_fn,
                                 nn::sample_indices(x.size(), 8)),
              0.05);
}

TEST(HierSoftmax, LearnsSimpleMapping)
{
    // Map 4 one-hot inputs to 4 distinct classes across clusters.
    Rng rng(5);
    nn::HierarchicalSoftmax h(4, 16, rng, 4);
    nn::Adam opt(nn::AdamConfig{0.05, 0.9, 0.999, 1e-8, 0.0});
    opt.add_param(&h.cluster_weight());
    opt.add_param(&h.class_weight());

    nn::Matrix x(4, 4);
    for (int i = 0; i < 4; ++i)
        x.at(i, i) = 1.0f;
    const std::vector<std::int32_t> targets = {1, 5, 10, 15};
    double loss = 0.0;
    for (int step = 0; step < 300; ++step) {
        nn::Matrix dx;
        loss = h.loss_and_grad(x, targets, dx);
        opt.step();
    }
    EXPECT_LT(loss, 0.1);
}

}  // namespace
}  // namespace voyager
