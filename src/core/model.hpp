/**
 * @file
 * The Voyager network (paper §4, Fig. 2): PC/page/offset embeddings, a
 * page-aware offset embedding via mixture-of-experts attention, two
 * LSTMs (page and offset), and two linear heads producing probability
 * distributions over page tokens and offset tokens. Trained with
 * multi-label BCE (§4.4) or single-label softmax CE (ablations).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/labeler.hpp"
#include "nn/adam.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/lstm.hpp"

namespace voyager::core {

/**
 * How the multi-label objective of §4.4 is realized.
 *
 * SoftmaxBest: softmax cross-entropy against the candidate label the
 * model currently ranks highest — a direct implementation of "the
 * model can learn the label that is most predictable". Converges much
 * faster at small scale and is the default.
 *
 * Bce: the paper's literal binary cross-entropy over all candidates
 * (with a positive-class weight to counter vocabulary-scale class
 * imbalance).
 */
enum class MultiLabelLoss
{
    SoftmaxBest = 0,
    Bce = 1,
};

/** All Voyager hyperparameters (paper Table 1 and the small default). */
struct VoyagerConfig
{
    std::size_t seq_len = 16;          ///< history length
    std::size_t pc_embed_dim = 16;
    std::size_t page_embed_dim = 32;
    std::size_t num_experts = 10;      ///< offset embed = experts * page
    std::size_t lstm_units = 64;
    float dropout_keep = 0.8f;
    float attention_scale = 1.0f;      ///< the paper's factor f
    double learning_rate = 1e-3;
    double lr_decay_ratio = 2.0;       ///< LR divided by this per epoch
    std::size_t batch_size = 64;
    bool use_pc_feature = true;        ///< Fig. 12 PC-history ablation
    bool multi_label = true;           ///< multi-label vs. first-label CE
    /** How the multi-label objective is realized (see MultiLabelLoss). */
    MultiLabelLoss multi_label_loss = MultiLabelLoss::SoftmaxBest;
    /** Labeling schemes supplying training labels (§4.4). */
    std::vector<LabelScheme> schemes = all_label_schemes();
    std::uint64_t seed = 42;

    /** Whether the heads are independent sigmoids trained with BCE
     *  rather than softmaxes. Training and the ranking of both the
     *  fp32 and the int8 engine read this one rule. */
    bool
    use_bce() const
    {
        return multi_label && multi_label_loss == MultiLabelLoss::Bce;
    }

    /** Offset-embedding width (the paper's 25600 = 256 x 100). */
    std::size_t
    offset_embed_dim() const
    {
        return page_embed_dim * num_experts;
    }

    /** Paper Table 1 hyperparameters. */
    static VoyagerConfig paper();
};

/** A (page token, offset token) training label. */
struct TokenLabel
{
    std::int32_t page = 0;
    std::int32_t offset = 0;

    bool operator==(const TokenLabel &) const = default;
};

/** A token-level minibatch (row-major [sample][timestep]). */
struct VoyagerBatch
{
    std::size_t batch = 0;
    std::size_t seq = 0;
    std::vector<std::int32_t> pc;      ///< batch*seq
    std::vector<std::int32_t> page;    ///< batch*seq
    std::vector<std::int32_t> offset;  ///< batch*seq
    /** Candidate labels per sample (training only; §4.4). */
    std::vector<std::vector<TokenLabel>> labels;
};

/** One (page token, offset token) candidate with its probability. */
struct TokenPrediction
{
    std::int32_t page = 0;
    std::int32_t offset = 0;
    float prob = 0.0f;
};

/**
 * Head logits -> ranked joint (page, offset) candidates (paper §4.3):
 * per row, each head's top k by nn::softmax_topk (independent
 * sigmoids under BCE training, softmaxes otherwise), merged into the
 * top-k pairs by joint probability page_prob * offset_prob, ties
 * broken by (page rank, offset rank). No probability matrix is
 * built. Shared by VoyagerModel and QuantizedVoyagerModel so the fp32
 * and int8 paths rank identically given identical logits.
 */
std::vector<std::vector<TokenPrediction>>
rank_token_predictions(const nn::Matrix &page_logits,
                       const nn::Matrix &offset_logits, bool use_bce,
                       std::size_t k);

/**
 * The SoftmaxBest label pick (§4.4, MultiLabelLoss::SoftmaxBest): for
 * each sample, the first of its candidate labels whose joint
 * probability page_prob * offset_prob is within 10% of the best
 * candidate's, given each head's softmax probabilities.
 * `page_labels` and `offset_labels` must hold one entry per sample.
 */
void pick_softmax_best(const nn::Matrix &page_probs,
                       const nn::Matrix &offset_probs,
                       const std::vector<std::vector<TokenLabel>> &labels,
                       std::vector<std::int32_t> &page_labels,
                       std::vector<std::int32_t> &offset_labels);

/**
 * The LSTM inputs of an inference batch with each distinct
 * (pc, page, offset) token assembled once: `x` holds one
 * [pc | page | attention] row per distinct token, and `steps` maps
 * every (timestep, sample) to its row (nn::StepRows). pc is left out
 * of the token when `use_pc_feature` is off.
 */
struct BatchInputs
{
    nn::StepRows steps;
    nn::Matrix x;  ///< (distinct tokens, LSTM in_dim)
};

/**
 * Inference input assembly shared by VoyagerModel and
 * QuantizedVoyagerModel (`Emb` = nn::Embedding or
 * nn::QuantizedEmbedding): validate the batch, collect its distinct
 * tokens (keys compared exactly), then gather the embeddings, run the
 * MoE attention and concatenate once per distinct token. Every step
 * is row-local, so a row has the bits the per-step training forward
 * gives that token. Returns thread-local scratch, valid until the
 * next call on the calling thread.
 * @throws std::invalid_argument naming the field on a malformed batch
 *         (as VoyagerModel::predict)
 */
template <class Emb>
const BatchInputs &
assemble_inputs(const VoyagerBatch &batch, const VoyagerConfig &cfg,
                const Emb &pc_emb, const Emb &page_emb,
                const Emb &offset_emb, const nn::MoeAttention &attn);

/** The Voyager neural network. */
class VoyagerModel
{
  public:
    VoyagerModel(const VoyagerConfig &cfg, std::int32_t num_pc_tokens,
                 std::int32_t num_page_tokens,
                 std::int32_t num_offset_tokens);

    /**
     * One optimizer step on a batch. @return mean loss.
     * @throws std::invalid_argument naming the field when `seq` is
     *         not seq_len, an id vector is not batch * seq long, an id
     *         is outside its embedding's vocabulary (pc ids only with
     *         use_pc_feature), or there is not one label list per
     *         sample
     */
    double train_step(const VoyagerBatch &batch);

    /**
     * Top-k (page, offset) candidates per sample, by joint prob.
     * Runs the inference forward: each distinct token's LSTM input
     * projection is computed once (assemble_inputs), then only the
     * recurrence runs per step. Bit-identical to the training
     * forward without dropout.
     * @throws std::invalid_argument naming the field, as train_step
     *         (labels are not read)
     */
    std::vector<std::vector<TokenPrediction>>
    predict(const VoyagerBatch &batch, std::size_t k);

    /** Divide the learning rate (called at epoch boundaries). */
    void decay_lr() { opt_.decay_lr(cfg_.lr_decay_ratio); }

    /** Multiply the learning rate (recovery backoff, §5.14). */
    void scale_lr(double factor) { opt_.set_lr(opt_.lr() * factor); }

    const VoyagerConfig &config() const { return cfg_; }

    /** All weight matrices (for serialization / compression). */
    std::vector<nn::Matrix *> weights();
    std::vector<const nn::Matrix *> weights() const;

    /** True when every weight matrix is finite (watchdog sweep). */
    bool weights_finite() const;

    /**
     * Serialize the *complete* training state: every module's weights,
     * Adam moments and step count, the LR-decay position, and all RNG
     * streams (init RNG + both dropout masks). A model restored with
     * load_state continues training bit-identically to one that was
     * never interrupted. Must be called between optimizer steps.
     */
    void save_state(std::ostream &os) const;

    /**
     * Restore state saved by save_state into an identically
     * configured model. @throws std::runtime_error on any mismatch.
     */
    void load_state(std::istream &is);

    std::uint64_t parameter_count() const;
    /** fp32 dense model size in bytes. */
    std::uint64_t parameter_bytes() const { return parameter_count() * 4; }

    nn::Embedding &pc_embedding() { return pc_emb_; }
    nn::Embedding &page_embedding() { return page_emb_; }
    nn::Embedding &offset_embedding() { return offset_emb_; }
    const nn::Embedding &pc_embedding() const { return pc_emb_; }
    const nn::Embedding &page_embedding() const { return page_emb_; }
    const nn::Embedding &offset_embedding() const { return offset_emb_; }
    const nn::Lstm &page_lstm() const { return page_lstm_; }
    const nn::Lstm &offset_lstm() const { return offset_lstm_; }
    const nn::Linear &page_head() const { return page_head_; }
    const nn::Linear &offset_head() const { return offset_head_; }

  private:
    /** Training forward (dropout on, per-step caches); fills logits. */
    void forward(const VoyagerBatch &batch);
    /** Inference forward over distinct tokens; fills logits. */
    void infer(const VoyagerBatch &batch);
    /** Backprop from head-logit gradients through everything. */
    void backward(const VoyagerBatch &batch,
                  const nn::Matrix &dpage_logits,
                  const nn::Matrix &doffset_logits);

    VoyagerConfig cfg_;
    Rng rng_;

    nn::Embedding pc_emb_;
    nn::Embedding page_emb_;
    nn::Embedding offset_emb_;
    /** One per timestep: the training forward caches per step;
     *  inference uses the first, statelessly. */
    std::vector<nn::MoeAttention> attn_;
    nn::Lstm page_lstm_;
    nn::Lstm offset_lstm_;
    nn::Dropout page_dropout_;
    nn::Dropout offset_dropout_;
    nn::Linear page_head_;
    nn::Linear offset_head_;
    nn::Adam opt_;

    // Forward caches.
    std::vector<nn::Matrix> xs_;          ///< per-step LSTM inputs
    nn::Matrix h_page_;
    nn::Matrix h_offset_;
    nn::Matrix page_logits_;
    nn::Matrix offset_logits_;
    std::vector<std::vector<std::int32_t>> step_pc_ids_;
    std::vector<std::vector<std::int32_t>> step_page_ids_;
    std::vector<std::vector<std::int32_t>> step_offset_ids_;
};

}  // namespace voyager::core
