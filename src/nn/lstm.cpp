#include "nn/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"

namespace voyager::nn {

Lstm::Lstm(std::size_t in_dim, std::size_t hidden, Rng &rng)
    : wx_(in_dim, 4 * hidden), wh_(hidden, 4 * hidden), b_(1, 4 * hidden)
{
    glorot_init(wx_.value, rng);
    glorot_init(wh_.value, rng);
    // Forget-gate bias starts at 1 (standard trick for gradient flow).
    const std::size_t h = hidden;
    for (std::size_t c = h; c < 2 * h; ++c)
        b_.value.at(0, c) = 1.0f;
}

void
Lstm::forward(const std::vector<Matrix> &xs, Matrix &h_last)
{
    assert(!xs.empty());
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    const std::size_t T = xs.size();

    // Borrow the caller's sequence (header contract) instead of deep-
    // copying it, and grow the per-step caches without destroying
    // their buffers so repeated calls stop reallocating.
    xs_ = &xs;
    steps_ = T;
    if (gates_.size() < T) {
        gates_.resize(T);
        cs_.resize(T);
        hs_.resize(T);
    }

    const float *bias = b_.value.data();
    for (std::size_t t = 0; t < T; ++t) {
        assert(xs[t].rows() == batch && xs[t].cols() == in_dim());
        Matrix &z = gates_[t];
        z.resize(batch, 4 * h);  // zero-fills: the GEMMs accumulate
        gemm_nn(xs[t], wx_.value, z);
        if (t > 0)  // h_{-1} = 0 contributes nothing at t = 0
            gemm_nn(hs_[t - 1], wh_.value, z);

        cs_[t].resize(batch, h);
        hs_[t].resize(batch, h);
        // Fused gate pass, shared with forward_inference() so the
        // two stay bit-identical (c_{-1} = 0 at t = 0; previous
        // states are read in place, not copied per step).
        ScopedOpTimer timer(op_stats().lstm_gate, batch * h);
        for (std::size_t r = 0; r < batch; ++r) {
            lstm_gate_row(z.row(r), bias,
                          t > 0 ? cs_[t - 1].row(r) : nullptr,
                          cs_[t].row(r), hs_[t].row(r), h);
        }
    }
    h_last = hs_[T - 1];
}

void
Lstm::project_inputs(const Matrix &x, Matrix &proj) const
{
    assert(x.cols() == in_dim());
    proj.resize(x.rows(), 4 * hidden());  // zero-fills: GEMM accumulates
    gemm_nn(x, wx_.value, proj);
}

void
Lstm::forward_inference(const Matrix &proj, const StepRows &rows,
                        Matrix &h_last)
{
    const std::size_t batch = rows.batch;
    const std::size_t h = hidden();
    const std::size_t T = rows.steps();
    assert(proj.cols() == 4 * h);

    // Serving path: no per-step caches, so memory stays
    // O(batch x hidden) for any sequence length. Poison the training
    // caches — backward() throws on them.
    xs_ = nullptr;
    steps_ = 0;

    const float *bias = b_.value.data();
    Matrix &z = inf_z_;
    Matrix &h_prev = inf_h_;
    z.resize_uninit(batch, 4 * h);  // every row is copied in below
    h_prev.resize_uninit(batch, h);
    for (std::size_t t = 0; t < T; ++t) {
        Matrix &c_prev = inf_c_[t % 2];
        Matrix &c_cur = inf_c_[(t + 1) % 2];
        // z = 0 + x_t Wx, then h Wh accumulates onto it: the same
        // order as forward()'s two GEMMs into a zeroed z.
        for (std::size_t b = 0; b < batch; ++b) {
            const float *src = proj.row(rows.at(t, b));
            std::copy(src, src + 4 * h, z.row(b));
        }
        if (t > 0)  // h_{-1} = 0 contributes nothing at t = 0
            gemm_nn(h_prev, wh_.value, z);

        c_cur.resize_uninit(batch, h);
        // h_prev is rewritten to h_t in place: the GEMM for this
        // step has already consumed it.
        ScopedOpTimer timer(op_stats().lstm_gate, batch * h);
        for (std::size_t r = 0; r < batch; ++r) {
            lstm_gate_row(z.row(r), bias,
                          t > 0 ? c_prev.row(r) : nullptr,
                          c_cur.row(r), h_prev.row(r), h);
        }
    }
    h_last = h_prev;
}

namespace {

/** out = w^T. */
void
transpose_into(const Matrix &w, Matrix &out)
{
    out.resize_uninit(w.cols(), w.rows());  // every element is written
    for (std::size_t r = 0; r < w.rows(); ++r) {
        const float *src = w.row(r);
        for (std::size_t c = 0; c < w.cols(); ++c)
            out.at(c, r) = src[c];
    }
}

}  // namespace

void
Lstm::backward(const Matrix &dh_last, std::vector<Matrix> &dxs)
{
    if (xs_ == nullptr || steps_ == 0)
        throw std::logic_error("nn::Lstm::backward: no training "
                               "forward() to backpropagate (none ran, "
                               "or forward_inference() replaced it)");
    const std::vector<Matrix> &xs = *xs_;
    const std::size_t T = steps_;
    assert(xs.size() == T);
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    assert(dh_last.rows() == batch && dh_last.cols() == h);

    // The input gradients need dz Wx^T and dz Wh^T at every step.
    // Transposing the weights once here lets each step's GEMM read
    // its B operand in place instead of re-packing W^T per step; the
    // panels hold the same values in the same order, so the products
    // have the same bits as gemm_nt(dz, W). Per-call locals, not
    // members or thread-local scratch: serving-only models never hold
    // them, and the freed blocks are reused, which keeps peak RSS
    // lower than long-lived buffers did (DESIGN.md decision 21).
    Matrix wx_t;
    Matrix wh_t;
    transpose_into(wx_.value, wx_t);
    transpose_into(wh_.value, wh_t);
    const std::vector<float> zero_row(h, 0.0f);  // c_{-1} = 0 at t = 0

    dxs.assign(T, Matrix());
    Matrix dh = dh_last;
    Matrix dc(batch, h);
    Matrix dz(batch, 4 * h);
    Matrix tanh_c;

    for (std::size_t t = T; t-- > 0;) {
        {
            ScopedOpTimer timer(op_stats().lstm_gate, batch * h);
            // tanh(c_t) with the forward kernel's tanh, so this is the
            // gradient of the function forward() computed.
            tanh_c = cs_[t];
            tanh_inplace(tanh_c);
            for (std::size_t r = 0; r < batch; ++r) {
                lstm_gate_backward_row(
                    gates_[t].row(r), tanh_c.row(r),
                    t > 0 ? cs_[t - 1].row(r) : zero_row.data(),
                    dh.row(r), dc.row(r), dz.row(r), h);
            }
        }

        gemm_tn(xs[t], dz, wx_.grad);
        bias_backward(dz, b_.grad);
        dxs[t].resize(batch, in_dim());
        gemm_nn(dz, wx_t, dxs[t]);

        if (t > 0) {
            gemm_tn(hs_[t - 1], dz, wh_.grad);
            dh.resize(batch, h);  // zero-fills: gemm_nn accumulates
            gemm_nn(dz, wh_t, dh);
        }
    }
}

void
Lstm::save_state(std::ostream &os) const
{
    save_matrix(os, wx_.value);
    save_matrix(os, wh_.value);
    save_matrix(os, b_.value);
}

void
Lstm::load_state(std::istream &is)
{
    load_matrix_into(is, wx_.value, "lstm wx");
    load_matrix_into(is, wh_.value, "lstm wh");
    load_matrix_into(is, b_.value, "lstm bias");
}

}  // namespace voyager::nn
