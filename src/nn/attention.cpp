#include "nn/attention.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"

namespace voyager::nn {

MoeAttention::MoeAttention(std::size_t experts, float scale)
    : experts_(experts), scale_(scale)
{
    assert(experts_ > 0);
}

void
MoeAttention::forward(const Matrix &page_emb, const Matrix &offset_emb,
                      Matrix &out)
{
    page_ = page_emb;
    offset_ = offset_emb;
    mix(page_emb, offset_emb, attn_, out);
}

void
MoeAttention::infer(const Matrix &page_emb, const Matrix &offset_emb,
                    Matrix &out) const
{
    static thread_local Matrix attn;
    mix(page_emb, offset_emb, attn, out);
}

void
MoeAttention::mix(const Matrix &page_emb, const Matrix &offset_emb,
                  Matrix &attn, Matrix &out) const
{
    const std::size_t batch = page_emb.rows();
    const std::size_t d = page_emb.cols();
    assert(offset_emb.rows() == batch);
    assert(offset_emb.cols() == experts_ * d);

    ScopedOpTimer timer(op_stats().attention,
                        4ull * batch * experts_ * d);
    attn.resize_uninit(batch, experts_);  // scores assigned below

    // Scores: a(o, s) = softmax_s(f * <h_p, h_{o,s}>)  (Eq. 9).
    for (std::size_t r = 0; r < batch; ++r) {
        const float *p = page_emb.row(r);
        const float *o = offset_emb.row(r);
        float *a = attn.row(r);
        for (std::size_t s = 0; s < experts_; ++s) {
            float dot = 0.0f;
            const float *chunk = o + s * d;
            for (std::size_t j = 0; j < d; ++j)
                dot += p[j] * chunk[j];
            a[s] = scale_ * dot;
        }
    }
    softmax_rows(attn);

    // Output: h'_o = sum_s a(o, s) h_{o,s}  (Eq. 10).
    out.resize(batch, d);
    for (std::size_t r = 0; r < batch; ++r) {
        const float *o = offset_emb.row(r);
        const float *a = attn.row(r);
        float *y = out.row(r);
        for (std::size_t s = 0; s < experts_; ++s) {
            const float w = a[s];
            const float *chunk = o + s * d;
            for (std::size_t j = 0; j < d; ++j)
                y[j] += w * chunk[j];
        }
    }
}

void
MoeAttention::backward(const Matrix &dout, Matrix &dpage, Matrix &doffset)
{
    const std::size_t batch = page_.rows();
    const std::size_t d = page_.cols();
    assert(dout.rows() == batch && dout.cols() == d);

    ScopedOpTimer timer(op_stats().attention,
                        8ull * batch * experts_ * d);
    dpage.resize_uninit(batch, d);           // fully assigned below
    doffset.resize_uninit(batch, experts_ * d);

    std::vector<float> da(experts_);
    std::vector<float> dscore(experts_);
    for (std::size_t r = 0; r < batch; ++r) {
        const float *p = page_.row(r);
        const float *o = offset_.row(r);
        const float *a = attn_.row(r);
        const float *dy = dout.row(r);
        float *dp = dpage.row(r);
        float *doff = doffset.row(r);

        // d a_s = <dout, chunk_s>; value path: d chunk_s += a_s * dout.
        for (std::size_t s = 0; s < experts_; ++s) {
            const float *chunk = o + s * d;
            float *dchunk = doff + s * d;
            float acc = 0.0f;
            for (std::size_t j = 0; j < d; ++j) {
                acc += dy[j] * chunk[j];
                dchunk[j] = a[s] * dy[j];
            }
            da[s] = acc;
        }
        // Softmax backward: ds_s = a_s (da_s - sum_k a_k da_k).
        float dot = 0.0f;
        for (std::size_t s = 0; s < experts_; ++s)
            dot += a[s] * da[s];
        for (std::size_t s = 0; s < experts_; ++s)
            dscore[s] = a[s] * (da[s] - dot);
        // Score backward through f * <p, chunk_s>.
        for (std::size_t j = 0; j < d; ++j)
            dp[j] = 0.0f;
        for (std::size_t s = 0; s < experts_; ++s) {
            const float g = scale_ * dscore[s];
            const float *chunk = o + s * d;
            float *dchunk = doff + s * d;
            for (std::size_t j = 0; j < d; ++j) {
                dp[j] += g * chunk[j];
                dchunk[j] += g * p[j];
            }
        }
    }
}

void
MoeAttention::save_state(std::ostream &os) const
{
    write_u64(os, experts_);
    write_f32(os, scale_);
}

void
MoeAttention::load_state(std::istream &is)
{
    expect_u64(is, experts_, "attention experts");
    const float scale = read_f32(is);
    if (scale != scale_)
        throw std::runtime_error("nn: attention scale mismatch");
}

}  // namespace voyager::nn
