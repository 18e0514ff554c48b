/**
 * @file
 * Online training protocol (paper §5.1): the stream is cut into
 * epochs; the model trained through epoch i-1 produces predictions for
 * epoch i, then trains on epoch i. No inference happens in epoch 0.
 *
 * SequenceModel adapters bind the token-level networks (Voyager,
 * Delta-LSTM) to an LLC access stream: they own the vocabulary, the
 * label streams and the decode step back to line addresses.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/delta_lstm.hpp"
#include "core/labeler.hpp"
#include "core/model.hpp"
#include "core/qmodel.hpp"
#include "core/vocab.hpp"
#include "sim/prefetcher.hpp"
#include "util/stat_registry.hpp"

namespace voyager::core {

/** Stream-index-level model interface used by the online trainer. */
class SequenceModel
{
  public:
    virtual ~SequenceModel() = default;

    virtual std::string name() const = 0;

    /** One training pass over the given prediction points. */
    virtual double train_on(const std::vector<std::size_t> &indices) = 0;

    /** Top-`degree` predicted lines per prediction point. */
    virtual std::vector<std::vector<Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t degree) = 0;

    /** Called at each epoch boundary (e.g. LR decay). */
    virtual void on_epoch_end() {}

    /** fp32 model size. */
    virtual std::uint64_t parameter_bytes() const = 0;

    /**
     * Serialize the complete training state (weights, optimizer
     * moments, RNG streams) for checkpointing. The default throws
     * CheckpointError: models without an override cannot checkpoint.
     */
    virtual void save_state(std::ostream &os) const;

    /** Restore state saved by save_state. @throws on mismatch. */
    virtual void load_state(std::istream &is);

    /** Cheap finite-ness sweep over the trainable state, used by the
     *  HealthMonitor. The default reports healthy. */
    virtual bool state_finite() const { return true; }

    /** Multiply the optimizer learning rate (recovery backoff). The
     *  default is a no-op for models without an optimizer handle. */
    virtual void scale_lr(double /*factor*/) {}
};

/** Watchdog thresholds and recovery policy (DESIGN.md §5.14). */
struct HealthConfig
{
    /** Spike = loss > factor x rolling baseline mean... */
    double loss_spike_factor = 8.0;
    /** ...but only when it also exceeds this floor, so the noisy
     *  first epochs of a healthy run can never trip the detector. */
    double min_spike_loss = 20.0;
    /** Unconditional divergence bound (no baseline required). */
    double divergence_loss = 1e6;
    /** Rolling-baseline window, in healthy epoch losses. */
    std::size_t baseline_window = 8;
    /** Rollback-and-retry attempts per epoch before degrading. */
    std::size_t max_retries = 2;
    /** LR multiplier for the second and later retries of an epoch —
     *  the first retry replays unchanged (transient faults vanish on
     *  replay); the backoff is undone once the epoch passes. */
    double lr_backoff = 0.5;
};

/** What a health check concluded. */
enum class HealthVerdict : std::uint8_t
{
    Healthy = 0,
    NonFiniteLoss = 1,   ///< epoch loss is NaN/Inf
    LossSpike = 2,       ///< loss spiked vs baseline, or diverged
    NonFiniteState = 3,  ///< a weight went NaN/Inf
};

/**
 * The training watchdog (DESIGN.md §5.14): finite-ness checks over
 * the epoch loss and model weights plus loss-spike/divergence
 * detection against a rolling baseline of healthy epoch losses.
 * Verdict counts land in the process-wide `health.*` stats.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(const HealthConfig &cfg = {}) : cfg_(cfg) {}

    /** Judge one completed epoch. Healthy losses join the baseline. */
    HealthVerdict check(double loss, const SequenceModel &model);

    /** Healthy losses seen so far (capped at baseline_window). */
    std::size_t baseline_size() const { return baseline_.size(); }

  private:
    HealthConfig cfg_;
    std::vector<double> baseline_;  ///< rolling window, oldest first
};

/** Online-training schedule. */
struct OnlineTrainConfig
{
    std::size_t epochs = 5;
    std::uint32_t degree = 1;
    /** Extra passes over each epoch's samples (online SGD repeats). */
    std::size_t train_passes = 1;
    /** Cap on training samples per epoch; 0 = all. */
    std::size_t max_train_samples_per_epoch = 0;
    /** Train on all data seen so far (epochs <= current) instead of
     *  only the newest epoch. Still causal: epoch e's predictions use
     *  a model trained exclusively on epochs < e. Improves sample
     *  efficiency at miniature scale. */
    bool cumulative = false;
    std::uint64_t seed = 7;
    /** Watchdog thresholds and recovery policy. */
    HealthConfig health;
};

/** What the online protocol produces. */
struct OnlineResult
{
    /** Per-stream-index predictions; empty for epoch-0 indices. */
    std::vector<std::vector<Addr>> predictions;
    /** First index with predictions (start of epoch 1). */
    std::size_t first_predicted_index = 0;
    std::vector<double> epoch_losses;
    double train_seconds = 0.0;
    double inference_seconds = 0.0;
    std::uint64_t trained_samples = 0;
    std::uint64_t predicted_samples = 0;
    /** Recovery exhausted: training aborted early and the caller
     *  should fall back to the ISB+BO hybrid (DESIGN.md §5.14). */
    bool degraded = false;
    /** Snapshot restores the recovery policy performed. */
    std::uint64_t rollbacks = 0;
    /** Optimizer steps dropped for non-finite gradients. */
    std::uint64_t skipped_steps = 0;

    /**
     * Export into `reg` under `<prefix>.`: per-epoch losses
     * (`.epoch<i>.loss` gauges plus a `.epoch_loss` RunningStat),
     * sample counters, and the wall-clock timings (volatile, so
     * golden-run comparisons can drop them). Assigns counters/gauges;
     * the RunningStat is rebuilt only when still empty, keeping
     * re-export idempotent.
     */
    void export_stats(StatRegistry &reg,
                      const std::string &prefix) const;
};

/** Run the train-on-epoch-i / predict-epoch-i+1 protocol. */
OnlineResult train_online(SequenceModel &model, std::size_t stream_size,
                          const OnlineTrainConfig &cfg);

/**
 * train_online with crash-consistent checkpointing: optionally resume
 * from `ckpt.path`, write a checkpoint every `ckpt.every_epochs`
 * completed epochs, and (for kill-point simulation) return early after
 * `ckpt.stop_after_epochs` epochs. A run interrupted at any epoch
 * boundary and resumed in a fresh process reproduces the
 * uninterrupted run's result bit-for-bit.
 */
OnlineResult train_online(SequenceModel &model, std::size_t stream_size,
                          const OnlineTrainConfig &cfg,
                          const CheckpointConfig &ckpt);

/** Binds VoyagerModel to a stream: vocab + labels + decode. */
class VoyagerAdapter final : public SequenceModel
{
  public:
    VoyagerAdapter(const VoyagerConfig &cfg,
                   const std::vector<LlcAccess> &stream,
                   const VocabConfig &vocab_cfg = {},
                   const LabelerConfig &labeler_cfg = {});

    std::string name() const override { return "voyager"; }
    double train_on(const std::vector<std::size_t> &indices) override;
    std::vector<std::vector<Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t degree) override;
    void on_epoch_end() override { model_.decay_lr(); }
    std::uint64_t parameter_bytes() const override
    {
        return model_.parameter_bytes();
    }
    void save_state(std::ostream &os) const override
    {
        model_.save_state(os);
    }
    void load_state(std::istream &is) override
    {
        model_.load_state(is);
    }
    bool state_finite() const override
    {
        return model_.weights_finite();
    }
    void scale_lr(double factor) override { model_.scale_lr(factor); }

    VoyagerModel &model() { return model_; }
    const Vocabulary &vocab() const { return vocab_; }
    const std::vector<LabelSet> &labels() const { return labels_; }
    const EncodedStream &encoded() const { return encoded_; }

    /**
     * Snapshot the current weights into an int8 engine (DESIGN.md
     * §5.13) and route predict_on through it; training still updates
     * the fp32 model, so call again after further training to
     * refresh the snapshot. Typically called after compress_model,
     * whose quantization grid the snapshot reproduces exactly.
     */
    void enable_int8_inference()
    {
        qmodel_ = std::make_unique<QuantizedVoyagerModel>(model_);
    }
    /** Back to fp32 inference; discards the int8 snapshot. */
    void disable_int8_inference() { qmodel_.reset(); }
    /** The active int8 engine, or nullptr when inferring in fp32. */
    const QuantizedVoyagerModel *int8_model() const
    {
        return qmodel_.get();
    }

    /** Smallest index with enough history to form a sample. */
    std::size_t min_index() const { return cfg_.seq_len - 1; }

    /**
     * Batch-capable serving facade (DESIGN.md §5.16): top-k token
     * candidates for an externally packed batch, routed through the
     * active inference engine (the int8 snapshot when
     * enable_int8_inference() is on, the fp32 model otherwise).
     * predict_on and the serve dispatcher share this entry point, so
     * the two paths can never diverge on engine selection.
     */
    std::vector<std::vector<TokenPrediction>>
    predict_tokens(const VoyagerBatch &batch, std::size_t k)
    {
        return qmodel_ ? qmodel_->predict(batch, k)
                       : model_.predict(batch, k);
    }

    /**
     * Ranked top-k token candidates per index over the trailing
     * windows, batch-chunked and routed through the active engine.
     * predict_on is this at k = degree + kDecodeOverFetch followed by
     * decode_candidates; the distillation pass (core/tabular.hpp)
     * consumes the same candidates as teacher labels. Indices without
     * enough history yield empty slots.
     */
    std::vector<std::vector<TokenPrediction>>
    predict_token_candidates(const std::vector<std::size_t> &indices,
                             std::size_t k);

  private:
    /** Fill histories for `indices` into a batch (no labels). */
    void fill_histories(const std::vector<std::size_t> &indices,
                        VoyagerBatch &batch) const;
    /** Token labels of sample i under the enabled schemes. */
    bool sample_labels(std::size_t i,
                       std::vector<TokenLabel> &labels) const;

    VoyagerConfig cfg_;
    const std::vector<LlcAccess> &stream_;
    Vocabulary vocab_;
    EncodedStream encoded_;
    std::vector<LabelSet> labels_;
    VoyagerModel model_;
    /** When set, predict_on runs through the int8 engine. */
    std::unique_ptr<QuantizedVoyagerModel> qmodel_;
};

/** Binds DeltaLstmModel to a stream. */
class DeltaLstmAdapter final : public SequenceModel
{
  public:
    DeltaLstmAdapter(const DeltaLstmConfig &cfg,
                     const std::vector<LlcAccess> &stream);

    std::string name() const override { return "delta_lstm"; }
    double train_on(const std::vector<std::size_t> &indices) override;
    std::vector<std::vector<Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t degree) override;
    std::uint64_t parameter_bytes() const override
    {
        return model_->parameter_bytes();
    }
    void save_state(std::ostream &os) const override
    {
        model_->save_state(os);
    }
    void load_state(std::istream &is) override
    {
        model_->load_state(is);
    }
    bool state_finite() const override
    {
        return model_->weights_finite();
    }
    void scale_lr(double factor) override { model_->scale_lr(factor); }

    DeltaLstmModel &model() { return *model_; }
    const DeltaVocab &vocab() const { return vocab_; }
    std::size_t min_index() const { return cfg_.seq_len; }

  private:
    void fill_histories(const std::vector<std::size_t> &indices,
                        DeltaBatch &batch) const;

    DeltaLstmConfig cfg_;
    const std::vector<LlcAccess> &stream_;
    DeltaVocab vocab_;
    /** Constructed after the PC scan (vocab sizes needed first). */
    std::unique_ptr<DeltaLstmModel> model_;
    std::vector<std::int32_t> delta_tokens_;  ///< token of line[i]-line[i-1]
    std::vector<std::int32_t> pc_tokens_;
    std::unordered_map<Addr, std::int32_t> pc_ids_;
};

}  // namespace voyager::core
