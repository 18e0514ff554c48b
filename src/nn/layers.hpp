/**
 * @file
 * Basic trainable layers: Embedding (with sparse gradient bookkeeping),
 * Linear, and inverted Dropout. Each layer caches what its backward
 * pass needs; backward accumulates into parameter gradients and
 * returns/accepts input gradients explicitly.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_set>
#include <vector>

#include "nn/matrix.hpp"
#include "util/random.hpp"

namespace voyager::nn {

/** Uniform Glorot/Xavier init in [-limit, limit]. */
void glorot_init(Matrix &m, Rng &rng);

/** Uniform init in [-scale, scale]. */
void uniform_init(Matrix &m, float scale, Rng &rng);

/**
 * Token embedding table (vocab x dim).
 *
 * Gradients are accumulated only in touched rows and the touched set
 * is tracked, so the optimizer can do sparse Adam updates — essential
 * when the page vocabulary has tens of thousands of entries.
 */
class Embedding
{
  public:
    Embedding(std::size_t vocab, std::size_t dim, Rng &rng);

    /** Gather rows: out(batch, dim). ids must be < vocab. */
    void forward(const std::vector<std::int32_t> &ids, Matrix &out) const;

    /** Scatter-add grad_out rows into the table gradient. */
    void backward(const std::vector<std::int32_t> &ids,
                  const Matrix &grad_out);

    Param &param() { return table_; }
    const Param &param() const { return table_; }
    std::size_t vocab() const { return table_.value.rows(); }
    std::size_t dim() const { return table_.value.cols(); }

    /** Rows with nonzero gradient since the last clear. */
    const std::unordered_set<std::int32_t> &touched() const
    {
        return touched_;
    }
    void clear_touched() { touched_.clear(); }

    /**
     * Serialize the table weights. Gradients and the touched set are
     * optimizer-step-transient and are not part of the state — all
     * module save_state/load_state calls happen at step boundaries
     * where both are empty.
     */
    void save_state(std::ostream &os) const;
    /** Restore weights. @throws std::runtime_error on shape mismatch. */
    void load_state(std::istream &is);

  private:
    Param table_;
    std::unordered_set<std::int32_t> touched_;
};

/** Fully connected layer Y = X W + b. */
class Linear
{
  public:
    Linear(std::size_t in, std::size_t out, Rng &rng);

    /** Y(batch,out) = X(batch,in) W + b. Caches X for backward. */
    void forward(const Matrix &x, Matrix &y);

    /**
     * Accumulate dW, db from dy and the cached input; dx (same shape
     * as the cached input) receives the input gradient (overwritten).
     * @throws std::logic_error when forward() has not run
     */
    void backward(const Matrix &dy, Matrix &dx);

    Param &weight() { return w_; }
    Param &bias() { return b_; }
    const Param &weight() const { return w_; }
    const Param &bias() const { return b_; }
    std::size_t in_dim() const { return w_.value.rows(); }
    std::size_t out_dim() const { return w_.value.cols(); }

    /** Serialize weight and bias. */
    void save_state(std::ostream &os) const;
    /** Restore weight and bias. @throws on shape mismatch. */
    void load_state(std::istream &is);

  private:
    Param w_;  // (in, out)
    Param b_;  // (1, out)
    Matrix cached_x_;
};

/**
 * Inverted dropout: at train time zeroes activations with probability
 * (1 - keep) and scales survivors by 1/keep; identity at eval time.
 */
class Dropout
{
  public:
    Dropout(float keep_prob, std::uint64_t seed);

    void set_training(bool training) { training_ = training; }
    bool training() const { return training_; }

    /** Apply in place; records the mask when training. */
    void forward(Matrix &x);

    /** Apply the recorded mask to the gradient in place. */
    void backward(Matrix &dx) const;

    /**
     * Serialize keep probability and the RNG stream position — the
     * stream position is what makes a resumed run draw the same masks
     * as an uninterrupted one. The per-batch mask is transient.
     */
    void save_state(std::ostream &os) const;
    /** Restore; @throws std::runtime_error on keep-prob mismatch. */
    void load_state(std::istream &is);

  private:
    float keep_;
    bool training_ = true;
    Rng rng_;
    std::vector<float> mask_;
};

}  // namespace voyager::nn
