#include "nn/adam.hpp"

#include <cmath>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"

namespace voyager::nn {

namespace {

/** One step's per-element update coefficients. */
struct AdamCoeffs
{
    float lr_t;  ///< bias-corrected learning rate
    float b1;
    float b2;
    float eps;
};

/**
 * The Adam update of n contiguous parameters; zeroes their gradients.
 * The spans never overlap, and with math errno off (this library's
 * build, src/nn/CMakeLists.txt) std::sqrt needs no library call, so
 * the loop vectorises. Vector sqrt and division are correctly
 * rounded like their scalar forms, so every element gets the bits
 * the scalar loop gives it.
 */
void
update_span(float *__restrict w, float *__restrict g, float *__restrict m,
            float *__restrict v, std::size_t n, AdamCoeffs k)
{
    for (std::size_t i = 0; i < n; ++i) {
        m[i] = k.b1 * m[i] + (1.0f - k.b1) * g[i];
        v[i] = k.b2 * v[i] + (1.0f - k.b2) * g[i] * g[i];
        w[i] -= k.lr_t * m[i] / (std::sqrt(v[i]) + k.eps);
        g[i] = 0.0f;
    }
}

}  // namespace

Adam::Adam(const AdamConfig &cfg) : cfg_(cfg) {}

void
Adam::add_param(Param *p)
{
    DenseState s;
    s.param = p;
    s.m = Matrix(p->value.rows(), p->value.cols());
    s.v = Matrix(p->value.rows(), p->value.cols());
    dense_.push_back(std::move(s));
}

void
Adam::add_embedding(Embedding *e)
{
    SparseState s;
    s.emb = e;
    s.m = Matrix(e->vocab(), e->dim());
    s.v = Matrix(e->vocab(), e->dim());
    sparse_.push_back(std::move(s));
}

void
Adam::step()
{
    // Fault-injection hook: may ask for a poisoned gradient element
    // before the update or a poisoned weight element after it. A
    // no-op unless a FaultPlan is installed.
    const OptStepFaults faults = fault_injector().on_optimizer_step();
    if (faults.grad && !dense_.empty() &&
        dense_[0].param->grad.size() > 0) {
        dense_[0].param->grad.data()[0] =
            static_cast<float>(*faults.grad);
    }

    std::vector<Matrix *> grads;
    for (auto &s : dense_)
        grads.push_back(&s.param->grad);
    // Embedding grads participate in the global norm as well.
    for (auto &s : sparse_)
        grads.push_back(&s.emb->param().grad);

    double total = 0.0;
    for (const Matrix *g : grads)
        total += sum_squares(*g);
    const double norm = std::sqrt(total);
    if (!std::isfinite(norm)) {
        // A NaN/Inf gradient would smear poison into every moment and
        // weight. Drop the batch instead: zero the gradients, leave
        // t_ and the moments untouched, and count the skip.
        ++skipped_steps_;
        ++health_stats().skipped_steps;
        zero_grad();
        return;
    }
    if (norm > kClipNorm) {
        // Global-norm clip, reusing the norm computed for the
        // finite-ness check.
        const float scale = static_cast<float>(kClipNorm / norm);
        for (Matrix *g : grads)
            scale_inplace(*g, scale);
    }

    ++t_;
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
    const AdamCoeffs k{static_cast<float>(cfg_.lr * std::sqrt(bc2) / bc1),
                       static_cast<float>(kBeta1),
                       static_cast<float>(kBeta2),
                       static_cast<float>(kEps)};
    for (auto &s : dense_) {
        update_span(s.param->value.data(), s.param->grad.data(),
                    s.m.data(), s.v.data(), s.param->value.size(), k);
    }
    for (auto &s : sparse_) {
        Param &p = s.emb->param();
        const std::size_t dim = p.value.cols();
        for (const auto row : s.emb->touched()) {
            update_span(p.value.row(row), p.grad.row(row), s.m.row(row),
                        s.v.row(row), dim, k);
        }
        s.emb->clear_touched();
    }

    if (faults.weight && !dense_.empty() &&
        dense_[0].param->value.size() > 0) {
        dense_[0].param->value.data()[0] =
            static_cast<float>(*faults.weight);
    }
}

void
Adam::save_state(std::ostream &os) const
{
    write_u64(os, t_);
    write_f64(os, cfg_.lr);  // decay_lr mutates it: schedule position
    write_u64(os, dense_.size());
    for (const auto &s : dense_) {
        save_matrix(os, s.m);
        save_matrix(os, s.v);
    }
    write_u64(os, sparse_.size());
    for (const auto &s : sparse_) {
        save_matrix(os, s.m);
        save_matrix(os, s.v);
    }
}

void
Adam::load_state(std::istream &is)
{
    t_ = read_u64(is);
    cfg_.lr = read_f64(is);
    expect_u64(is, dense_.size(), "adam dense parameter count");
    for (auto &s : dense_) {
        load_matrix_into(is, s.m, "adam first moment");
        load_matrix_into(is, s.v, "adam second moment");
    }
    expect_u64(is, sparse_.size(), "adam sparse parameter count");
    for (auto &s : sparse_) {
        load_matrix_into(is, s.m, "adam first moment");
        load_matrix_into(is, s.v, "adam second moment");
    }
}

void
Adam::zero_grad()
{
    for (auto &s : dense_)
        s.param->zero_grad();
    for (auto &s : sparse_) {
        Param &p = s.emb->param();
        for (const auto row : s.emb->touched()) {
            float *g = p.grad.row(row);
            for (std::size_t c = 0; c < p.grad.cols(); ++c)
                g[c] = 0.0f;
        }
        s.emb->clear_touched();
    }
}

}  // namespace voyager::nn
