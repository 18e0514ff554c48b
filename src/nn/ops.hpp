/**
 * @file
 * Dense kernels: GEMM (with transpose variants), bias/elementwise ops,
 * row softmax and sigmoid. All NN compute funnels through these.
 *
 * GEMM contract — ACCUMULATE, not overwrite
 * -----------------------------------------
 * All three GEMM variants compute `C += op(A) * op(B)`: they add into
 * the output and never clear it. Callers must zero (or deliberately
 * seed) `c` first. `Matrix::resize()` zero-fills, so resizing the
 * output immediately before the call is sufficient; reusing a buffer
 * from a previous step without zeroing silently folds stale values
 * into the product. The accumulate contract is load-bearing: weight
 * gradients (`Param::grad`) sum contributions across timesteps and
 * batches by calling GEMM repeatedly on the same output.
 *
 * GEMM contract — ROW INVARIANCE
 * ------------------------------
 * Each output row of `gemm_nn`, `gemm_tn` and `gemm_nt` depends only
 * on the matching row of op(A) and on op(B): a row has the same bits
 * whether it is computed alone (m = 1), inside a larger batch, or at
 * any position of a row-permuted batch. Every tile accumulates an
 * element over k in the same order and adds it to `c` once, and the
 * one-row tile runs the same per-lane multiply-add sequence as the
 * MR-row tile. Batched serving being bit-identical to batch 1, and
 * the LSTM input projection being computed once per distinct input
 * row (VoyagerModel::predict), both rest on this.
 *
 * GEMM contract — LAYOUT INVARIANCE
 * ---------------------------------
 * The bits of C depend only on the values of op(A) and op(B), not on
 * how they are stored: `gemm_nn(A, Bt)` with Bt a materialised B^T
 * equals `gemm_nt(A, B)` bit for bit, and `gemm_tn(At, B)` equals
 * `gemm_nn(A, B)`. Operands read in place and packed copies feed the
 * microkernel the same values in the same k order. Lstm::backward
 * relies on this to transpose its weights once per call and run
 * gemm_nn per step, with the bits of a per-step gemm_nt.
 *
 * The `gemm_*` entry points run a packed, register-blocked microkernel
 * (single-core, auto-vectorised); the `gemm_*_ref` functions keep the
 * seed's naive loops as a slow, independently-written reference for
 * equivalence tests and speedup baselines. `lstm_gate_row` and its
 * libm reference `lstm_gate_row_ref` follow the same convention.
 */
#pragma once

#include <cstdint>
#include <string>

#include "nn/matrix.hpp"
#include "util/stat_registry.hpp"

namespace voyager::nn {

/** Running totals for one kernel class. */
struct OpClassStats
{
    std::uint64_t calls = 0;
    /** FLOPs for GEMM (2mnk); processed elements for pointwise ops. */
    std::uint64_t work = 0;
    /** Wall-clock seconds spent inside the kernels. */
    double seconds = 0.0;
};

/**
 * Op-level counters for the NN hot path. Cheap enough to stay always
 * on (two clock reads per call, micro-seconds-scale kernels); gives
 * every bench and future perf PR a calls/FLOPs/seconds baseline per
 * op class. Reset before a measured region, read after.
 */
struct OpStats
{
    OpClassStats gemm;       ///< all gemm_nn/tn/nt calls
    OpClassStats qgemm;      ///< int8 qgemm_nt calls (work = 2mnk ops)
    OpClassStats lstm_gate;  ///< fused LSTM gate pointwise pass
    OpClassStats attention;  ///< MoE attention forward/backward

    void reset() { *this = OpStats(); }
};

/** Process-wide counters (the NN library is single-threaded). */
OpStats &op_stats();

/**
 * Export the process-wide op counters into `reg` under `<prefix>.`:
 * `.gemm.calls`, `.gemm.flops`, `.qgemm.ops`, `.lstm_gate.elements`,
 * `.attention.elements` plus per-class `.seconds` (volatile). Assigns
 * the cumulative totals, so re-export is idempotent.
 */
void export_op_stats(StatRegistry &reg,
                     const std::string &prefix = "nn");

/** RAII timer charging one kernel invocation to an op class. */
class ScopedOpTimer
{
  public:
    ScopedOpTimer(OpClassStats &s, std::uint64_t work);
    ~ScopedOpTimer();

    ScopedOpTimer(const ScopedOpTimer &) = delete;
    ScopedOpTimer &operator=(const ScopedOpTimer &) = delete;

  private:
    OpClassStats &s_;
    double t0_;
};

/** C += A * B.  A:(m,k) B:(k,n) C:(m,n). Accumulates (see above). */
void gemm_nn(const Matrix &a, const Matrix &b, Matrix &c);

/** C += A^T * B.  A:(k,m) B:(k,n) C:(m,n). Used for weight grads. */
void gemm_tn(const Matrix &a, const Matrix &b, Matrix &c);

/** C += A * B^T.  A:(m,k) B:(n,k) C:(m,n). Used for input grads. */
void gemm_nt(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A * B; reference for tests and benchmarks. */
void gemm_nn_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A^T * B; reference implementation. */
void gemm_tn_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** Seed-era naive C += A * B^T; reference implementation. */
void gemm_nt_ref(const Matrix &a, const Matrix &b, Matrix &c);

/** y += x (same shape). */
void add_inplace(Matrix &y, const Matrix &x);

/** Scale in place. */
void scale_inplace(Matrix &y, float alpha);

/** Add a bias row vector (1,n) to every row of (m,n). */
void add_bias(Matrix &y, const Matrix &bias);

/** bias_grad (1,n) += column sums of dy (m,n). */
void bias_backward(const Matrix &dy, Matrix &bias_grad);

/** Row-wise softmax in place. Numerically stabilized. */
void softmax_rows(Matrix &m);

/** Elementwise tanh in place: the LSTM gate kernel's tanh. */
void tanh_inplace(Matrix &m);

/**
 * Fused ranking head over one row of `n` logits: the top
 * `kept = min(k, n)` columns by logit, descending, ties to the smaller
 * column, with their probabilities. Writes `kept` column indices to
 * `idx` and probabilities to `prob` (each room for min(k, n) values).
 *
 * softmax (`sigmoid == false`): prob = e^(l - max) / sum over the
 * whole row of e^(l - max), with max the first kept logit. Every
 * exponential is the LSTM gate kernel's vectorised exp (relative
 * error about 1e-7, never subnormal); the sum runs 16 lanes at a time
 * with the padding of the last, partial block masked out. Only the
 * kept entries are normalised; no probability row is built.
 *
 * sigmoid (`sigmoid == true`): prob = 1 / (1 + exp(-l)) with libm's
 * exp, on the kept logits only. Ranking by logit puts the larger
 * logit first where the probabilities saturate to equal values.
 *
 * In both, a NaN or +inf logit anywhere in the row makes every kept
 * probability NaN.
 * @return kept
 */
std::size_t softmax_topk(const float *row, std::size_t n, std::size_t k,
                         bool sigmoid, std::int32_t *idx, float *prob);

/**
 * Fused LSTM gate pass over one batch row (gate order i, f, g, o).
 * Adds `bias` (4 * hidden) to the pre-activations in `z`
 * (4 * hidden), replaces them in place with their activations
 * (sigmoid, sigmoid, tanh, sigmoid), then writes the cell state
 * c = i * g + f * c_prev and the hidden state h = o * tanh(c).
 * `c_prev == nullptr` means c_{-1} = 0 (the t = 0 step).
 *
 * Vectorised 16 lanes at a time, the last partial block on a
 * zero-padded copy, so a value gives the same bits in every column.
 * sigmoid and tanh are polynomial approximations with absolute error
 * <= 2e-7; NaN propagates and +-inf saturate. Lstm::forward,
 * Lstm::forward_inference and QuantizedLstm::forward all run this
 * one kernel.
 */
void lstm_gate_row(float *z, const float *bias, const float *c_prev,
                   float *c, float *h, std::size_t hidden);

/**
 * Gradient of lstm_gate_row over one batch row, given the gate
 * activations `z` [i f g o] (4 * hidden) the forward pass left,
 * `tanh_c` = tanh(c_t), `c_prev` = c_{t-1} (a row of zeros at t = 0)
 * and `dh` = dL/dh_t. `dc` holds dL/dc_t carried from step t + 1 on
 * entry and dL/dc_{t-1} on return; `dz` (4 * hidden) receives the
 * pre-activation gradients. No argument may alias another, which
 * lets the loop vectorise; every element runs the same operations in
 * the same order at any vector width.
 */
void lstm_gate_backward_row(const float *__restrict z,
                            const float *__restrict tanh_c,
                            const float *__restrict c_prev,
                            const float *__restrict dh,
                            float *__restrict dc, float *__restrict dz,
                            std::size_t hidden);

/** Seed-era libm gate loop (same contract); reference for tests and
 *  benchmarks. */
void lstm_gate_row_ref(float *z, const float *bias, const float *c_prev,
                       float *c, float *h, std::size_t hidden);

/** Sum of squares of all elements. */
double sum_squares(const Matrix &m);

/** True when every element is finite (no NaN/Inf). */
bool is_finite(const Matrix &m);

}  // namespace voyager::nn
