/**
 * @file
 * Central-difference gradient checking used by the test suite to
 * verify every hand-written backward pass.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "nn/matrix.hpp"

namespace voyager::nn {

/**
 * Compare the analytic gradient stored in `param.grad` against a
 * numeric central difference of `loss_fn` for the given flat indices.
 *
 * `loss_fn` must recompute the full forward pass and return the loss;
 * it must NOT mutate gradients. The caller is responsible for having
 * run forward+backward once so `param.grad` is populated.
 *
 * @return the maximum relative error over the checked entries, where
 *         relative error = |a - n| / max(1e-4, |a| + |n|).
 */
inline double
gradient_check(Param &param, const std::function<double()> &loss_fn,
               const std::vector<std::size_t> &indices, float eps = 1e-2f)
{
    double max_rel = 0.0;
    float *w = param.value.data();
    const float *g = param.grad.data();
    for (const std::size_t i : indices) {
        const float saved = w[i];
        w[i] = saved + eps;
        const double lp = loss_fn();
        w[i] = saved - eps;
        const double lm = loss_fn();
        w[i] = saved;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double analytic = g[i];
        const double denom =
            std::max(1e-4, std::fabs(analytic) + std::fabs(numeric));
        max_rel = std::max(max_rel,
                           std::fabs(analytic - numeric) / denom);
    }
    return max_rel;
}

/** Evenly spaced sample of k indices over a parameter of size n. */
inline std::vector<std::size_t>
sample_indices(std::size_t n, std::size_t k)
{
    std::vector<std::size_t> out;
    if (n == 0)
        return out;
    const std::size_t kk = std::min(n, k);
    out.reserve(kk);
    for (std::size_t i = 0; i < kk; ++i)
        out.push_back(i * n / kk);
    return out;
}

}  // namespace voyager::nn
