#include "core/model.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "nn/qlayers.hpp"
#include "nn/serialize.hpp"
#include "util/flat_hash.hpp"

namespace voyager::core {

using nn::Matrix;

VoyagerConfig
VoyagerConfig::paper()
{
    VoyagerConfig c;
    c.seq_len = 16;
    c.pc_embed_dim = 64;
    c.page_embed_dim = 256;
    c.num_experts = 100;  // offset embedding 25600 = 256 x 100
    c.lstm_units = 256;
    c.dropout_keep = 0.8f;
    c.learning_rate = 1e-3;
    c.lr_decay_ratio = 2.0;
    c.batch_size = 256;
    return c;
}

VoyagerModel::VoyagerModel(const VoyagerConfig &cfg,
                           std::int32_t num_pc_tokens,
                           std::int32_t num_page_tokens,
                           std::int32_t num_offset_tokens)
    : cfg_(cfg), rng_(cfg.seed),
      pc_emb_(static_cast<std::size_t>(num_pc_tokens), cfg.pc_embed_dim,
              rng_),
      page_emb_(static_cast<std::size_t>(num_page_tokens),
                cfg.page_embed_dim, rng_),
      offset_emb_(static_cast<std::size_t>(num_offset_tokens),
                  cfg.offset_embed_dim(), rng_),
      attn_(cfg.seq_len,
            nn::MoeAttention(cfg.num_experts, cfg.attention_scale)),
      page_lstm_((cfg.use_pc_feature ? cfg.pc_embed_dim : 0) +
                     2 * cfg.page_embed_dim,
                 cfg.lstm_units, rng_),
      offset_lstm_((cfg.use_pc_feature ? cfg.pc_embed_dim : 0) +
                       2 * cfg.page_embed_dim,
                   cfg.lstm_units, rng_),
      page_dropout_(cfg.dropout_keep, cfg.seed ^ 0x9e37u),
      offset_dropout_(cfg.dropout_keep, cfg.seed ^ 0x79b9u),
      page_head_(cfg.lstm_units, static_cast<std::size_t>(num_page_tokens),
                 rng_),
      offset_head_(cfg.lstm_units,
                   static_cast<std::size_t>(num_offset_tokens), rng_),
      opt_(nn::AdamConfig{cfg.learning_rate, 0.9, 0.999, 1e-8,
                          cfg.grad_clip})
{
    opt_.add_embedding(&pc_emb_);
    opt_.add_embedding(&page_emb_);
    opt_.add_embedding(&offset_emb_);
    for (nn::Lstm *l : {&page_lstm_, &offset_lstm_}) {
        opt_.add_param(&l->wx());
        opt_.add_param(&l->wh());
        opt_.add_param(&l->bias());
    }
    for (nn::Linear *l : {&page_head_, &offset_head_}) {
        opt_.add_param(&l->weight());
        opt_.add_param(&l->bias());
    }
}

namespace {

/** x(r) = [pc_e(r) | page_e(r) | off_aware(r)]; pc_e may be null. */
void
concat_inputs(const Matrix *pc_e, const Matrix &page_e,
              const Matrix &off_aware, Matrix &x)
{
    const std::size_t d_pc = pc_e ? pc_e->cols() : 0;
    const std::size_t d_page = page_e.cols();
    x.resize_uninit(page_e.rows(), d_pc + 2 * d_page);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        float *row = x.row(r);
        if (pc_e)
            std::memcpy(row, pc_e->row(r), d_pc * sizeof(float));
        std::memcpy(row + d_pc, page_e.row(r), d_page * sizeof(float));
        std::memcpy(row + d_pc + d_page, off_aware.row(r),
                    d_page * sizeof(float));
    }
}

void
check_ids(const std::vector<std::int32_t> &ids, std::size_t vocab,
          const char *field)
{
    for (const std::int32_t id : ids) {
        if (id < 0 || static_cast<std::size_t>(id) >= vocab)
            throw std::invalid_argument(
                std::string("VoyagerBatch.") + field + ": id " +
                std::to_string(id) + " outside [0, " +
                std::to_string(vocab) + ")");
    }
}

/** One (pc, page, offset) token, compared exactly. */
struct TokenKey
{
    std::int32_t pc;
    std::int32_t page;
    std::int32_t offset;

    bool operator==(const TokenKey &) const = default;
};

struct TokenKeyHash
{
    std::uint64_t
    operator()(const TokenKey &k) const
    {
        const std::uint64_t po =
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                k.page)) << 32 |
            static_cast<std::uint32_t>(k.offset);
        return flat_detail::mix64(
            po ^ flat_detail::mul_fold(
                     static_cast<std::uint32_t>(k.pc)));
    }
};

/** Thread-local scratch of assemble_inputs. */
struct InputScratch
{
    BatchInputs in;
    FlatHashMap<TokenKey, std::uint32_t, TokenKeyHash> row_of;
    std::vector<std::int32_t> pc_ids;
    std::vector<std::int32_t> page_ids;
    std::vector<std::int32_t> off_ids;
    Matrix pc_e;
    Matrix page_e;
    Matrix off_e;
    Matrix off_aware;
};

/**
 * Check a batch where it enters a model: `seq` equals `cfg.seq_len`;
 * pc, page and offset each hold batch * seq ids; every page and
 * offset id (and pc id, when `cfg.use_pc_feature`) lies in
 * [0, vocab) of its embedding; with `training`, there is one label
 * list per sample.
 * @throws std::invalid_argument naming the offending field
 */
void
validate_batch(const VoyagerBatch &batch, const VoyagerConfig &cfg,
               std::size_t pc_vocab, std::size_t page_vocab,
               std::size_t offset_vocab, bool training)
{
    if (batch.seq != cfg.seq_len)
        throw std::invalid_argument(
            "VoyagerBatch.seq: " + std::to_string(batch.seq) +
            " != model seq_len " + std::to_string(cfg.seq_len));
    const std::size_t n = batch.batch * batch.seq;
    const auto check_size = [n](const std::vector<std::int32_t> &v,
                                const char *field) {
        if (v.size() != n)
            throw std::invalid_argument(
                std::string("VoyagerBatch.") + field + ": " +
                std::to_string(v.size()) + " ids != batch * seq = " +
                std::to_string(n));
    };
    check_size(batch.pc, "pc");
    check_size(batch.page, "page");
    check_size(batch.offset, "offset");
    if (training && batch.labels.size() != batch.batch)
        throw std::invalid_argument(
            "VoyagerBatch.labels: " +
            std::to_string(batch.labels.size()) +
            " label lists != batch " + std::to_string(batch.batch));
    if (cfg.use_pc_feature)
        check_ids(batch.pc, pc_vocab, "pc");
    check_ids(batch.page, page_vocab, "page");
    check_ids(batch.offset, offset_vocab, "offset");
}

}  // namespace

template <class Emb>
const BatchInputs &
assemble_inputs(const VoyagerBatch &batch, const VoyagerConfig &cfg,
                const Emb &pc_emb, const Emb &page_emb,
                const Emb &offset_emb, const nn::MoeAttention &attn)
{
    validate_batch(batch, cfg, pc_emb.vocab(), page_emb.vocab(),
                   offset_emb.vocab(), /*training=*/false);
    static thread_local InputScratch s;
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    const bool use_pc = cfg.use_pc_feature;

    s.row_of.clear();
    s.pc_ids.clear();
    s.page_ids.clear();
    s.off_ids.clear();
    s.in.steps.batch = B;
    s.in.steps.index.resize(B * T);
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t b = 0; b < B; ++b) {
            const std::size_t i = b * T + t;
            const TokenKey key{use_pc ? batch.pc[i] : 0, batch.page[i],
                               batch.offset[i]};
            const auto next =
                static_cast<std::uint32_t>(s.page_ids.size());
            const auto [it, fresh] = s.row_of.emplace(key, next);
            if (fresh) {
                s.pc_ids.push_back(key.pc);
                s.page_ids.push_back(key.page);
                s.off_ids.push_back(key.offset);
            }
            s.in.steps.index[t * B + b] = it->second;
        }
    }

    page_emb.forward(s.page_ids, s.page_e);
    offset_emb.forward(s.off_ids, s.off_e);
    attn.infer(s.page_e, s.off_e, s.off_aware);
    if (use_pc)
        pc_emb.forward(s.pc_ids, s.pc_e);
    concat_inputs(use_pc ? &s.pc_e : nullptr, s.page_e, s.off_aware,
                  s.in.x);
    return s.in;
}

template const BatchInputs &assemble_inputs<nn::Embedding>(
    const VoyagerBatch &, const VoyagerConfig &, const nn::Embedding &,
    const nn::Embedding &, const nn::Embedding &,
    const nn::MoeAttention &);
template const BatchInputs &assemble_inputs<nn::QuantizedEmbedding>(
    const VoyagerBatch &, const VoyagerConfig &,
    const nn::QuantizedEmbedding &, const nn::QuantizedEmbedding &,
    const nn::QuantizedEmbedding &, const nn::MoeAttention &);

void
VoyagerModel::forward(const VoyagerBatch &batch)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;

    page_dropout_.set_training(true);
    offset_dropout_.set_training(true);

    xs_.assign(T, Matrix());
    step_pc_ids_.assign(T, {});
    step_page_ids_.assign(T, {});
    step_offset_ids_.assign(T, {});

    Matrix pc_e;
    Matrix page_e;
    Matrix off_e;
    Matrix off_aware;
    for (std::size_t t = 0; t < T; ++t) {
        auto &pc_ids = step_pc_ids_[t];
        auto &page_ids = step_page_ids_[t];
        auto &off_ids = step_offset_ids_[t];
        pc_ids.resize(B);
        page_ids.resize(B);
        off_ids.resize(B);
        for (std::size_t b = 0; b < B; ++b) {
            pc_ids[b] = batch.pc[b * T + t];
            page_ids[b] = batch.page[b * T + t];
            off_ids[b] = batch.offset[b * T + t];
        }
        page_emb_.forward(page_ids, page_e);
        offset_emb_.forward(off_ids, off_e);
        attn_[t].forward(page_e, off_e, off_aware);
        if (cfg_.use_pc_feature)
            pc_emb_.forward(pc_ids, pc_e);
        concat_inputs(cfg_.use_pc_feature ? &pc_e : nullptr, page_e,
                      off_aware, xs_[t]);
    }

    page_lstm_.forward(xs_, h_page_);
    offset_lstm_.forward(xs_, h_offset_);
    page_dropout_.forward(h_page_);
    offset_dropout_.forward(h_offset_);
    page_head_.forward(h_page_, page_logits_);
    offset_head_.forward(h_offset_, offset_logits_);
}

void
VoyagerModel::infer(const VoyagerBatch &batch)
{
    // Dropout is the identity at inference, so it is skipped.
    const BatchInputs &in = assemble_inputs(
        batch, cfg_, pc_emb_, page_emb_, offset_emb_, attn_.front());
    static thread_local Matrix proj;
    page_lstm_.project_inputs(in.x, proj);
    page_lstm_.forward_inference(proj, in.steps, h_page_);
    offset_lstm_.project_inputs(in.x, proj);
    offset_lstm_.forward_inference(proj, in.steps, h_offset_);
    page_head_.forward(h_page_, page_logits_);
    offset_head_.forward(h_offset_, offset_logits_);
}

void
VoyagerModel::backward(const VoyagerBatch &batch,
                       const Matrix &dpage_logits,
                       const Matrix &doffset_logits)
{
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    const std::size_t d_pc = cfg_.use_pc_feature ? cfg_.pc_embed_dim : 0;
    const std::size_t d_page = cfg_.page_embed_dim;

    Matrix dh_page;
    Matrix dh_offset;
    page_head_.backward(dpage_logits, dh_page);
    offset_head_.backward(doffset_logits, dh_offset);
    page_dropout_.backward(dh_page);
    offset_dropout_.backward(dh_offset);

    std::vector<Matrix> dxs_page;
    std::vector<Matrix> dxs_offset;
    page_lstm_.backward(dh_page, dxs_page);
    offset_lstm_.backward(dh_offset, dxs_offset);

    Matrix dpage_e(B, d_page);
    Matrix dpage_from_attn;
    Matrix doff_e;
    Matrix dattn_out(B, d_page);
    Matrix dpc_e(B, d_pc == 0 ? 1 : d_pc);
    for (std::size_t t = 0; t < T; ++t) {
        add_inplace(dxs_page[t], dxs_offset[t]);  // both LSTMs share x
        const Matrix &dx = dxs_page[t];
        // Split dx back into [pc | page | attention-output] chunks.
        for (std::size_t b = 0; b < B; ++b) {
            const float *row = dx.row(b);
            std::size_t o = 0;
            if (d_pc > 0) {
                std::memcpy(dpc_e.row(b), row, d_pc * sizeof(float));
                o += d_pc;
            }
            std::memcpy(dpage_e.row(b), row + o, d_page * sizeof(float));
            o += d_page;
            std::memcpy(dattn_out.row(b), row + o,
                        d_page * sizeof(float));
        }
        attn_[t].backward(dattn_out, dpage_from_attn, doff_e);
        add_inplace(dpage_from_attn, dpage_e);
        page_emb_.backward(step_page_ids_[t], dpage_from_attn);
        offset_emb_.backward(step_offset_ids_[t], doff_e);
        if (d_pc > 0)
            pc_emb_.backward(step_pc_ids_[t], dpc_e);
    }
}

void
pick_softmax_best(const Matrix &page_probs, const Matrix &offset_probs,
                  const std::vector<std::vector<TokenLabel>> &labels,
                  std::vector<std::int32_t> &page_labels,
                  std::vector<std::int32_t> &offset_labels)
{
    for (std::size_t b = 0; b < labels.size(); ++b) {
        assert(!labels[b].empty());
        // "Most predictable" candidate, with a stability rule: on
        // near-ties (within 10% of the max) the earliest scheme wins,
        // so early high-entropy batches train a consistent target
        // instead of thrashing.
        float max_p = 0.0f;
        std::vector<float> ps(labels[b].size());
        for (std::size_t k = 0; k < labels[b].size(); ++k) {
            const TokenLabel &lab = labels[b][k];
            ps[k] = page_probs.at(b, static_cast<std::size_t>(lab.page)) *
                    offset_probs.at(b,
                                    static_cast<std::size_t>(lab.offset));
            max_p = std::max(max_p, ps[k]);
        }
        std::size_t pick = 0;
        for (std::size_t k = 0; k < ps.size(); ++k) {
            if (ps[k] >= 0.9f * max_p) {
                pick = k;
                break;
            }
        }
        page_labels[b] = labels[b][pick].page;
        offset_labels[b] = labels[b][pick].offset;
    }
}

double
VoyagerModel::train_step(const VoyagerBatch &batch)
{
    validate_batch(batch, cfg_, pc_emb_.vocab(), page_emb_.vocab(),
                   offset_emb_.vocab(), /*training=*/true);
    forward(batch);

    Matrix dpage;
    Matrix doffset;
    double loss = 0.0;
    if (cfg_.use_bce()) {
        // Paper §4.4: independent sigmoids, every candidate positive.
        std::vector<std::vector<std::int32_t>> pl(batch.batch);
        std::vector<std::vector<std::int32_t>> ol(batch.batch);
        for (std::size_t b = 0; b < batch.batch; ++b) {
            for (const TokenLabel &lab : batch.labels[b]) {
                if (std::find(pl[b].begin(), pl[b].end(), lab.page) ==
                    pl[b].end())
                    pl[b].push_back(lab.page);
                if (std::find(ol[b].begin(), ol[b].end(), lab.offset) ==
                    ol[b].end())
                    ol[b].push_back(lab.offset);
            }
        }
        loss += nn::bce_multilabel_loss(page_logits_, pl, dpage,
                                        cfg_.bce_pos_weight);
        loss += nn::bce_multilabel_loss(offset_logits_, ol, doffset,
                                        cfg_.bce_pos_weight);
    } else {
        // Softmax CE against one candidate per sample: either the
        // most-predictable candidate (multi-label SoftmaxBest) or the
        // first candidate (single-label ablations).
        std::vector<std::int32_t> pl(batch.batch);
        std::vector<std::int32_t> ol(batch.batch);
        // Each head's softmax is computed once, in the gradient
        // matrices: the label pick reads it, then it becomes the CE
        // gradient in place.
        dpage = page_logits_;
        doffset = offset_logits_;
        nn::softmax_rows(dpage);
        nn::softmax_rows(doffset);
        if (cfg_.multi_label) {
            pick_softmax_best(dpage, doffset, batch.labels, pl, ol);
        } else {
            for (std::size_t b = 0; b < batch.batch; ++b) {
                assert(!batch.labels[b].empty());
                pl[b] = batch.labels[b][0].page;
                ol[b] = batch.labels[b][0].offset;
            }
        }
        loss += nn::softmax_ce_from_probs(dpage, pl);
        loss += nn::softmax_ce_from_probs(doffset, ol);
    }

    backward(batch, dpage, doffset);
    opt_.step();
    return loss;
}

std::vector<std::vector<TokenPrediction>>
rank_token_predictions(const Matrix &page_logits,
                       const Matrix &offset_logits, bool use_bce,
                       std::size_t k)
{
    // Per row, the fused head keeps each head's top k with their
    // probabilities (independent sigmoids under BCE training,
    // softmaxes otherwise). Ranking by page_prob * offset_prob then
    // picks the paper's highest-probability (page, offset) pairs.
    const std::size_t pages = page_logits.cols();
    const std::size_t offsets = offset_logits.cols();
    static thread_local std::vector<std::int32_t> page_idx;
    static thread_local std::vector<std::int32_t> offset_idx;
    static thread_local std::vector<float> page_prob;
    static thread_local std::vector<float> offset_prob;
    static thread_local std::vector<std::size_t> next;
    page_idx.resize(std::min(k, pages));
    page_prob.resize(page_idx.size());
    next.resize(page_idx.size());
    offset_idx.resize(std::min(k, offsets));
    offset_prob.resize(offset_idx.size());

    std::vector<std::vector<TokenPrediction>> out(page_logits.rows());
    for (std::size_t b = 0; b < out.size(); ++b) {
        const std::size_t np =
            nn::softmax_topk(page_logits.row(b), pages, k, use_bce,
                             page_idx.data(), page_prob.data());
        const std::size_t no =
            nn::softmax_topk(offset_logits.row(b), offsets, k, use_bce,
                             offset_idx.data(), offset_prob.data());
        // Merge the two descending lists: page i's next candidate is
        // its offset next[i]. A product never grows along either list,
        // so page i + 1 joins the frontier only once page i has
        // emitted its best pair, and the frontier maximum comes next.
        // Ties go to the smaller page rank, then the smaller offset
        // rank.
        std::vector<TokenPrediction> &row = out[b];
        row.reserve(std::min(k, np * no));
        std::fill(next.begin(), next.end(), 0);
        std::size_t lo = 0;  // pages [lo, open) have offsets left
        std::size_t open = np == 0 || no == 0 ? 0 : 1;
        while (row.size() < k && lo < open) {
            std::size_t best = lo;
            float best_p = page_prob[lo] * offset_prob[next[lo]];
            for (std::size_t i = lo + 1; i < open; ++i) {
                if (next[i] == no)
                    continue;
                const float p = page_prob[i] * offset_prob[next[i]];
                if (p > best_p) {
                    best = i;
                    best_p = p;
                }
            }
            row.push_back({page_idx[best], offset_idx[next[best]], best_p});
            if (next[best]++ == 0 && open < np)
                ++open;
            while (lo < open && next[lo] == no)
                ++lo;
        }
    }
    return out;
}

std::vector<std::vector<TokenPrediction>>
VoyagerModel::predict(const VoyagerBatch &batch, std::size_t k)
{
    infer(batch);
    return rank_token_predictions(page_logits_, offset_logits_,
                                  cfg_.use_bce(), k);
}

void
VoyagerModel::save_state(std::ostream &os) const
{
    nn::write_u64(os, cfg_.seq_len);
    nn::write_u64(os, cfg_.use_pc_feature ? 1 : 0);
    pc_emb_.save_state(os);
    page_emb_.save_state(os);
    offset_emb_.save_state(os);
    for (const nn::MoeAttention &a : attn_)
        a.save_state(os);
    page_lstm_.save_state(os);
    offset_lstm_.save_state(os);
    page_dropout_.save_state(os);
    offset_dropout_.save_state(os);
    page_head_.save_state(os);
    offset_head_.save_state(os);
    opt_.save_state(os);
    nn::save_rng_state(os, rng_.state());
}

void
VoyagerModel::load_state(std::istream &is)
{
    nn::expect_u64(is, cfg_.seq_len, "voyager seq_len");
    nn::expect_u64(is, cfg_.use_pc_feature ? 1 : 0,
                   "voyager use_pc_feature");
    pc_emb_.load_state(is);
    page_emb_.load_state(is);
    offset_emb_.load_state(is);
    for (nn::MoeAttention &a : attn_)
        a.load_state(is);
    page_lstm_.load_state(is);
    offset_lstm_.load_state(is);
    page_dropout_.load_state(is);
    offset_dropout_.load_state(is);
    page_head_.load_state(is);
    offset_head_.load_state(is);
    opt_.load_state(is);
    rng_.set_state(nn::load_rng_state(is));
}

std::vector<Matrix *>
VoyagerModel::weights()
{
    return {
        &pc_emb_.param().value,     &page_emb_.param().value,
        &offset_emb_.param().value, &page_lstm_.wx().value,
        &page_lstm_.wh().value,     &page_lstm_.bias().value,
        &offset_lstm_.wx().value,   &offset_lstm_.wh().value,
        &offset_lstm_.bias().value, &page_head_.weight().value,
        &page_head_.bias().value,   &offset_head_.weight().value,
        &offset_head_.bias().value,
    };
}

std::vector<const Matrix *>
VoyagerModel::weights() const
{
    auto *self = const_cast<VoyagerModel *>(this);
    std::vector<const Matrix *> out;
    for (Matrix *m : self->weights())
        out.push_back(m);
    return out;
}

bool
VoyagerModel::weights_finite() const
{
    for (const Matrix *m : weights())
        if (!nn::is_finite(*m))
            return false;
    return true;
}

std::uint64_t
VoyagerModel::parameter_count() const
{
    std::uint64_t n = 0;
    for (const Matrix *m : weights())
        n += m->size();
    return n;
}

}  // namespace voyager::core
