/**
 * @file
 * Adam optimizer with dense updates for ordinary parameters and lazy
 * (touched-rows-only) updates for embedding tables — the embedding
 * layer dominates the parameter count, so sparse updates are what make
 * training tractable (§4.2 of the paper discusses the embedding layer
 * as the storage/compute bottleneck).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"

namespace voyager::nn {

/** Adam hyperparameters. */
struct AdamConfig
{
    double lr = 1e-3;
};

/** Adam over a fixed set of registered parameters. */
class Adam
{
  public:
    /** First-moment decay. */
    static constexpr double kBeta1 = 0.9;
    /** Second-moment decay. */
    static constexpr double kBeta2 = 0.999;
    /** Denominator guard. */
    static constexpr double kEps = 1e-8;
    /** Gradients are rescaled to this global norm when it is larger. */
    static constexpr double kClipNorm = 5.0;

    explicit Adam(const AdamConfig &cfg = {});

    /** Register a dense parameter. Must outlive the optimizer. */
    void add_param(Param *p);

    /** Register an embedding for sparse (touched-row) updates. */
    void add_embedding(Embedding *e);

    /**
     * Apply one update after clipping the global gradient norm to
     * kClipNorm; zeroes all gradients and touched sets. When
     * the global gradient norm is non-finite the step is skipped
     * entirely (gradients zeroed, no moment/weight/step-count change)
     * and counted in skipped_steps() / `health.skipped_steps`.
     */
    void step();

    /** Zero gradients without updating. */
    void zero_grad();

    double lr() const { return cfg_.lr; }
    void set_lr(double lr) { cfg_.lr = lr; }
    /** Divide the learning rate (the paper's decay ratio is 2). */
    void decay_lr(double ratio) { cfg_.lr /= ratio; }

    std::uint64_t steps() const { return t_; }

    /** Updates dropped because the gradient norm was NaN/Inf. */
    std::uint64_t skipped_steps() const { return skipped_steps_; }

    /**
     * Serialize the complete optimizer state: step count, the current
     * (possibly decayed) learning rate, and first/second moments of
     * every registered parameter in registration order. Must be
     * called at a step boundary (gradients zero, touched sets empty).
     */
    void save_state(std::ostream &os) const;

    /**
     * Restore optimizer state into the same registration layout.
     * @throws std::runtime_error on count or shape mismatch.
     */
    void load_state(std::istream &is);

  private:
    struct DenseState
    {
        Param *param;
        Matrix m;
        Matrix v;
    };
    struct SparseState
    {
        Embedding *emb;
        Matrix m;
        Matrix v;
    };

    AdamConfig cfg_;
    std::uint64_t t_ = 0;
    std::uint64_t skipped_steps_ = 0;
    std::vector<DenseState> dense_;
    std::vector<SparseState> sparse_;
};

}  // namespace voyager::nn
