/**
 * @file
 * Single-layer LSTM with explicit backward-through-time. Sequences are
 * presented as T matrices of shape (batch, in_dim); the model consumes
 * the final hidden state (the Voyager heads predict from the last
 * step), so backward takes a gradient for h_T only.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/matrix.hpp"
#include "util/random.hpp"

namespace voyager::nn {

/**
 * Where each (timestep, sample) of a sequence batch reads its input
 * from a matrix of the batch's distinct input rows: step t of sample
 * b is row `index[t * batch + b]`. Built by the model's inference
 * input assembly (core::assemble_inputs).
 */
struct StepRows
{
    std::size_t batch = 0;
    std::vector<std::uint32_t> index;  ///< steps() * batch entries

    std::size_t steps() const { return batch ? index.size() / batch : 0; }
    std::uint32_t
    at(std::size_t t, std::size_t b) const
    {
        return index[t * batch + b];
    }
};

/** Single-layer LSTM (gate order i, f, g, o). */
class Lstm
{
  public:
    Lstm(std::size_t in_dim, std::size_t hidden, Rng &rng);

    /**
     * Run the sequence from zero initial state.
     *
     * The input sequence is borrowed, not copied: backward() reads
     * `xs` through a cached pointer, so the caller must keep `xs`
     * alive and unmodified until backward() (or the next forward())
     * — every model in this repo holds the sequence as a member
     * across the forward/backward pair.
     *
     * @param xs T inputs of shape (batch, in_dim)
     * @param h_last receives h_T (batch, hidden)
     */
    void forward(const std::vector<Matrix> &xs, Matrix &h_last);

    /**
     * Backprop through time from a gradient on h_T.
     * Accumulates parameter gradients; dxs receives per-step input
     * gradients (resized to match the cached forward inputs).
     * @throws std::logic_error when no training forward() precedes
     *         it (none ran, or forward_inference() ran since)
     */
    void backward(const Matrix &dh_last, std::vector<Matrix> &dxs);

    /**
     * The input projection of the inference path: proj(rows, 4H) =
     * 0 + x Wx for distinct input rows x (rows, in_dim), one GEMM.
     * Row-invariant (ops.hpp), so each row has the bits forward()
     * computes for that input at any step and batch position.
     */
    void project_inputs(const Matrix &x, Matrix &proj) const;

    /**
     * forward() over projected inputs, without retaining the per-step
     * training caches. Step t of sample b starts from
     * z = proj.row(rows.at(t, b)); each step then runs only the
     * h_{t-1} Wh GEMM and the gate kernel (nn::lstm_gate_row), and
     * only a rotating (cell, hidden) pair survives it, so serving
     * keeps O(batch x hidden) state for any sequence length.
     * Bit-identical to forward() on the per-step inputs — z is the
     * same (0 + x Wx) + h Wh — but it invalidates the training
     * caches: backward() throws until the next forward().
     *
     * @param proj project_inputs() of the distinct input rows
     * @param rows (t, b) -> row of `proj`
     * @param h_last receives h_T (rows.batch, hidden)
     */
    void forward_inference(const Matrix &proj, const StepRows &rows,
                           Matrix &h_last);

    Param &wx() { return wx_; }
    Param &wh() { return wh_; }
    Param &bias() { return b_; }
    const Param &wx() const { return wx_; }
    const Param &wh() const { return wh_; }
    const Param &bias() const { return b_; }

    std::size_t in_dim() const { return wx_.value.rows(); }
    std::size_t hidden() const { return wh_.value.rows(); }

    /** Serialize wx, wh and bias (activation caches are transient). */
    void save_state(std::ostream &os) const;
    /** Restore parameters. @throws on shape mismatch. */
    void load_state(std::istream &is);

  private:
    Param wx_;  // (in, 4H)
    Param wh_;  // (H, 4H)
    Param b_;   // (1, 4H)

    // Forward caches. The input sequence is borrowed from the caller
    // (see forward()); the per-step activation buffers are grown, not
    // reallocated, across calls — steps_ bounds the live prefix.
    const std::vector<Matrix> *xs_ = nullptr;
    std::size_t steps_ = 0;
    std::vector<Matrix> gates_;  // (B, 4H) post-activation [i f g o]
    std::vector<Matrix> cs_;     // (B, H) cell states
    std::vector<Matrix> hs_;     // (B, H) hidden states

    // Rotating forward_inference state: one gate buffer plus the
    // previous step's cell/hidden rows, reused across calls.
    Matrix inf_z_;     // (B, 4H)
    Matrix inf_c_[2];  // (B, H) ping-pong cell state
    Matrix inf_h_;     // (B, H) hidden, updated in place per step
};

}  // namespace voyager::nn
