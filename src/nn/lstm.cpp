#include "nn/lstm.hpp"

#include <algorithm>
#include <cassert>

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
    // caches — backward() asserts on them.
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

void
Lstm::backward(const Matrix &dh_last, std::vector<Matrix> &dxs)
{
    assert(xs_ != nullptr && steps_ > 0);
    const std::vector<Matrix> &xs = *xs_;
    const std::size_t T = steps_;
    assert(xs.size() == T);
    const std::size_t batch = xs[0].rows();
    const std::size_t h = hidden();
    assert(dh_last.rows() == batch && dh_last.cols() == h);

    dxs.assign(T, Matrix());
    Matrix dh = dh_last;
    Matrix dc(batch, h);
    Matrix dz(batch, 4 * h);
    Matrix tanh_c;

    for (std::size_t t = T; t-- > 0;) {
        const Matrix &gates = gates_[t];
        const Matrix &c = cs_[t];
        const Matrix *c_prev = t > 0 ? &cs_[t - 1] : nullptr;

        {
            ScopedOpTimer timer(op_stats().lstm_gate, batch * h);
            // tanh(c_t) with the forward kernel's tanh, so this is the
            // gradient of the function forward() computed.
            tanh_c = c;
            tanh_inplace(tanh_c);
            for (std::size_t r = 0; r < batch; ++r) {
                const float *zr = gates.row(r);
                const float *tcr = tanh_c.row(r);
                const float *cpr = c_prev ? c_prev->row(r) : nullptr;
                const float *dhr = dh.row(r);
                float *dcr = dc.row(r);
                float *dzr = dz.row(r);
                for (std::size_t j = 0; j < h; ++j) {
                    const float gi = zr[j];
                    const float gf = zr[h + j];
                    const float gg = zr[2 * h + j];
                    const float go = zr[3 * h + j];
                    const float tc = tcr[j];
                    const float d_h = dhr[j];
                    const float d_o = d_h * tc;
                    float d_c = dcr[j] + d_h * go * (1.0f - tc * tc);
                    const float d_i = d_c * gg;
                    const float d_f = d_c * (cpr ? cpr[j] : 0.0f);
                    const float d_g = d_c * gi;
                    dcr[j] = d_c * gf;  // flows to step t-1
                    dzr[j] = d_i * gi * (1.0f - gi);
                    dzr[h + j] = d_f * gf * (1.0f - gf);
                    dzr[2 * h + j] = d_g * (1.0f - gg * gg);
                    dzr[3 * h + j] = d_o * go * (1.0f - go);
                }
            }
        }

        gemm_tn(xs[t], dz, wx_.grad);
        bias_backward(dz, b_.grad);
        dxs[t].resize(batch, in_dim());
        gemm_nt(dz, wx_.value, dxs[t]);

        if (t > 0) {
            gemm_tn(hs_[t - 1], dz, wh_.grad);
            dh.resize(batch, h);  // zero-fills: gemm_nt accumulates
            gemm_nt(dz, wh_.value, dh);
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
