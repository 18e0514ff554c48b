#include "nn/layers.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"

namespace voyager::nn {

void
glorot_init(Matrix &m, Rng &rng)
{
    const float limit = std::sqrt(
        6.0f / static_cast<float>(m.rows() + m.cols()));
    uniform_init(m, limit, rng);
}

void
uniform_init(Matrix &m, float scale, Rng &rng)
{
    float *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        d[i] = (rng.next_float() * 2.0f - 1.0f) * scale;
}

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng &rng)
    : table_(vocab, dim)
{
    // Embeddings use a smaller init than Glorot: rows are looked up
    // individually, so the fan-in is 1.
    uniform_init(table_.value, 0.05f, rng);
}

void
Embedding::forward(const std::vector<std::int32_t> &ids, Matrix &out) const
{
    const std::size_t dim = table_.value.cols();
    out.resize_uninit(ids.size(), dim);  // every row is memcpy'd below
    for (std::size_t i = 0; i < ids.size(); ++i) {
        assert(ids[i] >= 0 &&
               static_cast<std::size_t>(ids[i]) < table_.value.rows());
        std::memcpy(out.row(i), table_.value.row(ids[i]),
                    dim * sizeof(float));
    }
}

void
Embedding::backward(const std::vector<std::int32_t> &ids,
                    const Matrix &grad_out)
{
    assert(grad_out.rows() == ids.size());
    assert(grad_out.cols() == table_.value.cols());
    const std::size_t dim = table_.value.cols();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        float *g = table_.grad.row(ids[i]);
        const float *go = grad_out.row(i);
        for (std::size_t c = 0; c < dim; ++c)
            g[c] += go[c];
        touched_.insert(ids[i]);
    }
}

void
Embedding::save_state(std::ostream &os) const
{
    save_matrix(os, table_.value);
}

void
Embedding::load_state(std::istream &is)
{
    load_matrix_into(is, table_.value, "embedding table");
}

Linear::Linear(std::size_t in, std::size_t out, Rng &rng)
    : w_(in, out), b_(1, out)
{
    glorot_init(w_.value, rng);
}

void
Linear::forward(const Matrix &x, Matrix &y)
{
    assert(x.cols() == w_.value.rows());
    cached_x_ = x;
    y.resize(x.rows(), w_.value.cols());
    gemm_nn(x, w_.value, y);
    add_bias(y, b_.value);
}

void
Linear::backward(const Matrix &dy, Matrix &dx)
{
    // A default-constructed cache has no columns; forward() always
    // leaves in_dim() of them, even for an empty batch.
    if (cached_x_.cols() != in_dim())
        throw std::logic_error("nn::Linear::backward: no cached input "
                               "(forward() has not run)");
    assert(dy.rows() == cached_x_.rows());
    assert(dy.cols() == w_.value.cols());
    gemm_tn(cached_x_, dy, w_.grad);
    bias_backward(dy, b_.grad);
    dx.resize(cached_x_.rows(), cached_x_.cols());
    gemm_nt(dy, w_.value, dx);
}

void
Linear::save_state(std::ostream &os) const
{
    save_matrix(os, w_.value);
    save_matrix(os, b_.value);
}

void
Linear::load_state(std::istream &is)
{
    load_matrix_into(is, w_.value, "linear weight");
    load_matrix_into(is, b_.value, "linear bias");
}

Dropout::Dropout(float keep_prob, std::uint64_t seed)
    : keep_(keep_prob), rng_(seed)
{
    assert(keep_ > 0.0f && keep_ <= 1.0f);
}

void
Dropout::forward(Matrix &x)
{
    if (!training_ || keep_ >= 1.0f) {
        mask_.clear();
        return;
    }
    mask_.resize(x.size());
    const float inv_keep = 1.0f / keep_;
    float *d = x.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float m = rng_.next_float() < keep_ ? inv_keep : 0.0f;
        mask_[i] = m;
        d[i] *= m;
    }
}

void
Dropout::save_state(std::ostream &os) const
{
    write_f32(os, keep_);
    save_rng_state(os, rng_.state());
}

void
Dropout::load_state(std::istream &is)
{
    const float keep = read_f32(is);
    if (keep != keep_)
        throw std::runtime_error("nn: dropout keep-probability "
                                 "mismatch");
    rng_.set_state(load_rng_state(is));
}

void
Dropout::backward(Matrix &dx) const
{
    if (mask_.empty())
        return;
    assert(dx.size() == mask_.size());
    float *d = dx.data();
    for (std::size_t i = 0; i < dx.size(); ++i)
        d[i] *= mask_[i];
}

}  // namespace voyager::nn
