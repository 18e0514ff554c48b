#include "core/delta_lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "util/stats.hpp"

namespace voyager::core {

using nn::Matrix;

DeltaLstmConfig
DeltaLstmConfig::paper()
{
    DeltaLstmConfig c;
    c.pc_embed_dim = 64;
    c.delta_embed_dim = 256;
    c.lstm_units = 256;
    c.max_deltas = 50000;
    c.batch_size = 256;
    return c;
}

DeltaVocab
DeltaVocab::build(const std::vector<LlcAccess> &stream,
                  std::size_t max_deltas)
{
    DeltaVocab v;
    FreqCounter freq;
    for (std::size_t i = 1; i < stream.size(); ++i) {
        const std::int64_t d =
            static_cast<std::int64_t>(stream[i].line) -
            static_cast<std::int64_t>(stream[i - 1].line);
        freq.add(static_cast<std::uint64_t>(d));
    }
    std::uint64_t covered = 0;
    for (const auto &[key, cnt] : freq.top_k(max_deltas)) {
        const auto d = static_cast<std::int64_t>(key);
        v.deltas_.push_back(d);
        v.ids_.emplace(d, static_cast<std::int32_t>(v.deltas_.size()));
        covered += cnt;
    }
    v.coverage_ = freq.total()
        ? static_cast<double>(covered) / static_cast<double>(freq.total())
        : 0.0;
    return v;
}

std::int32_t
DeltaVocab::encode(std::int64_t delta) const
{
    auto it = ids_.find(delta);
    return it == ids_.end() ? 0 : it->second;
}

std::optional<std::int64_t>
DeltaVocab::decode(std::int32_t token) const
{
    if (token <= 0 || static_cast<std::size_t>(token) > deltas_.size())
        return std::nullopt;
    return deltas_[static_cast<std::size_t>(token) - 1];
}

DeltaLstmModel::DeltaLstmModel(const DeltaLstmConfig &cfg,
                               std::int32_t num_pc_tokens,
                               std::int32_t num_delta_tokens)
    : cfg_(cfg), rng_(cfg.seed),
      pc_emb_(static_cast<std::size_t>(num_pc_tokens), cfg.pc_embed_dim,
              rng_),
      delta_emb_(static_cast<std::size_t>(num_delta_tokens),
                 cfg.delta_embed_dim, rng_),
      lstm_(cfg.pc_embed_dim + cfg.delta_embed_dim, cfg.lstm_units, rng_),
      head_(cfg.lstm_units, static_cast<std::size_t>(num_delta_tokens),
            rng_),
      opt_(nn::AdamConfig{cfg.learning_rate})
{
    opt_.add_embedding(&pc_emb_);
    opt_.add_embedding(&delta_emb_);
    opt_.add_param(&lstm_.wx());
    opt_.add_param(&lstm_.wh());
    opt_.add_param(&lstm_.bias());
    opt_.add_param(&head_.weight());
    opt_.add_param(&head_.bias());
}

void
DeltaLstmModel::forward(const DeltaBatch &batch)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    assert(T == cfg_.seq_len);
    assert(batch.pc.size() == B * T && batch.delta.size() == B * T);

    xs_.assign(T, Matrix());
    step_pc_ids_.assign(T, {});
    step_delta_ids_.assign(T, {});
    Matrix pc_e;
    Matrix de;
    const std::size_t d_pc = cfg_.pc_embed_dim;
    const std::size_t d_delta = cfg_.delta_embed_dim;
    for (std::size_t t = 0; t < T; ++t) {
        auto &pc_ids = step_pc_ids_[t];
        auto &delta_ids = step_delta_ids_[t];
        pc_ids.resize(B);
        delta_ids.resize(B);
        for (std::size_t b = 0; b < B; ++b) {
            pc_ids[b] = batch.pc[b * T + t];
            delta_ids[b] = batch.delta[b * T + t];
        }
        pc_emb_.forward(pc_ids, pc_e);
        delta_emb_.forward(delta_ids, de);
        Matrix &x = xs_[t];
        x.resize(B, d_pc + d_delta);
        for (std::size_t b = 0; b < B; ++b) {
            std::memcpy(x.row(b), pc_e.row(b), d_pc * sizeof(float));
            std::memcpy(x.row(b) + d_pc, de.row(b),
                        d_delta * sizeof(float));
        }
    }
    lstm_.forward(xs_, h_);
    head_.forward(h_, logits_);
}

double
DeltaLstmModel::train_step(const DeltaBatch &batch)
{
    assert(batch.labels.size() == batch.batch);
    forward(batch);

    Matrix dlogits;
    const double loss =
        nn::softmax_ce_loss(logits_, batch.labels, dlogits);

    Matrix dh;
    head_.backward(dlogits, dh);
    std::vector<Matrix> dxs;
    lstm_.backward(dh, dxs);

    const std::size_t B = batch.batch;
    const std::size_t d_pc = cfg_.pc_embed_dim;
    const std::size_t d_delta = cfg_.delta_embed_dim;
    Matrix dpc(B, d_pc);
    Matrix dde(B, d_delta);
    for (std::size_t t = 0; t < batch.seq; ++t) {
        for (std::size_t b = 0; b < B; ++b) {
            const float *row = dxs[t].row(b);
            std::memcpy(dpc.row(b), row, d_pc * sizeof(float));
            std::memcpy(dde.row(b), row + d_pc, d_delta * sizeof(float));
        }
        pc_emb_.backward(step_pc_ids_[t], dpc);
        delta_emb_.backward(step_delta_ids_[t], dde);
    }
    opt_.step();
    return loss;
}

std::vector<std::vector<std::pair<std::int32_t, float>>>
DeltaLstmModel::predict(const DeltaBatch &batch, std::size_t k)
{
    forward(batch);
    const std::size_t kept = std::min(k, logits_.cols());
    std::vector<std::int32_t> idx(kept);
    std::vector<float> prob(kept);
    std::vector<std::vector<std::pair<std::int32_t, float>>> out(
        batch.batch);
    for (std::size_t b = 0; b < batch.batch; ++b) {
        nn::softmax_topk(logits_.row(b), logits_.cols(), k, false,
                         idx.data(), prob.data());
        for (std::size_t i = 0; i < kept; ++i)
            out[b].emplace_back(idx[i], prob[i]);
    }
    return out;
}

bool
DeltaLstmModel::weights_finite() const
{
    const nn::Matrix *ws[] = {
        &pc_emb_.param().value, &delta_emb_.param().value,
        &lstm_.wx().value,      &lstm_.wh().value,
        &lstm_.bias().value,    &head_.weight().value,
        &head_.bias().value,
    };
    for (const nn::Matrix *m : ws)
        if (!nn::is_finite(*m))
            return false;
    return true;
}

std::uint64_t
DeltaLstmModel::parameter_count() const
{
    return pc_emb_.param().size() + delta_emb_.param().size() +
           lstm_.wx().size() + lstm_.wh().size() + lstm_.bias().size() +
           head_.weight().size() + head_.bias().size();
}

void
DeltaLstmModel::save_state(std::ostream &os) const
{
    nn::write_u64(os, cfg_.seq_len);
    pc_emb_.save_state(os);
    delta_emb_.save_state(os);
    lstm_.save_state(os);
    head_.save_state(os);
    opt_.save_state(os);
    nn::save_rng_state(os, rng_.state());
}

void
DeltaLstmModel::load_state(std::istream &is)
{
    nn::expect_u64(is, cfg_.seq_len, "delta_lstm seq_len");
    pc_emb_.load_state(is);
    delta_emb_.load_state(is);
    lstm_.load_state(is);
    head_.load_state(is);
    opt_.load_state(is);
    rng_.set_state(nn::load_rng_state(is));
}

}  // namespace voyager::core
