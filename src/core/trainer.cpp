#include "core/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/decode.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"
#include "util/random.hpp"

namespace voyager::core {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

void
SequenceModel::save_state(std::ostream &) const
{
    throw CheckpointError(name() + " does not support checkpointing");
}

void
SequenceModel::load_state(std::istream &)
{
    throw CheckpointError(name() + " does not support checkpointing");
}

HealthVerdict
HealthMonitor::check(double loss, const SequenceModel &model)
{
    ++health_stats().checks;
    if (!std::isfinite(loss)) {
        ++health_stats().nonfinite_loss;
        return HealthVerdict::NonFiniteLoss;
    }
    bool spiked = loss > kDivergenceLoss;
    if (!spiked && !baseline_.empty() && loss > kMinSpikeLoss) {
        double mean = 0.0;
        for (const double l : baseline_)
            mean += l;
        mean /= static_cast<double>(baseline_.size());
        spiked = loss > kLossSpikeFactor * mean;
    }
    if (spiked) {
        ++health_stats().loss_spikes;
        return HealthVerdict::LossSpike;
    }
    if (!model.state_finite()) {
        ++health_stats().nonfinite_state;
        return HealthVerdict::NonFiniteState;
    }
    baseline_.push_back(loss);
    if (baseline_.size() > kBaselineWindow)
        baseline_.erase(baseline_.begin());
    return HealthVerdict::Healthy;
}

void
OnlineResult::export_stats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.counter(prefix + ".samples.trained") = trained_samples;
    reg.counter(prefix + ".samples.predicted") = predicted_samples;
    reg.counter(prefix + ".first_predicted_index") =
        first_predicted_index;
    reg.counter(prefix + ".epochs") = epoch_losses.size();
    for (std::size_t e = 0; e < epoch_losses.size(); ++e)
        reg.gauge(prefix + ".epoch" + std::to_string(e) + ".loss") =
            epoch_losses[e];
    if (!epoch_losses.empty())
        reg.gauge(prefix + ".final_loss") = epoch_losses.back();
    RunningStat &loss = reg.running(prefix + ".epoch_loss");
    if (loss.count() == 0)
        for (const double l : epoch_losses)
            loss.add(l);
    reg.counter(prefix + ".degraded") = degraded ? 1 : 0;
    reg.counter(prefix + ".rollbacks") = rollbacks;
    reg.counter(prefix + ".skipped_steps") = skipped_steps;
    reg.gauge(prefix + ".train_seconds", true) = train_seconds;
    reg.gauge(prefix + ".inference_seconds", true) = inference_seconds;
}

OnlineResult
train_online(SequenceModel &model, std::size_t stream_size,
             const OnlineTrainConfig &cfg)
{
    return train_online(model, stream_size, cfg, CheckpointConfig{});
}

OnlineResult
train_online(SequenceModel &model, std::size_t stream_size,
             const OnlineTrainConfig &cfg, const CheckpointConfig &ckpt)
{
    OnlineResult res;
    res.predictions.assign(stream_size, {});
    if (stream_size == 0 || cfg.epochs == 0)
        return res;

    // Balanced partition: ceil-division sized every epoch at
    // ceil(n/E), so whenever stream_size % epochs != 0 the final
    // epoch(s) came up empty and their inference slice was silently
    // skipped. Give every epoch floor(n/E) samples and spread the
    // remainder over the first n % E epochs; if the stream is shorter
    // than the epoch count, run one epoch per sample.
    const std::size_t n_epochs = std::min(cfg.epochs, stream_size);
    const std::size_t base = stream_size / n_epochs;
    const std::size_t extra = stream_size % n_epochs;
    const auto epoch_begin = [base, extra](std::size_t e) {
        return e * base + std::min(e, extra);
    };
    res.first_predicted_index =
        n_epochs > 1 ? epoch_begin(1) : stream_size;

    Rng rng(cfg.seed);
    std::size_t start_epoch = 0;
    if (ckpt.enabled() && ckpt.resume) {
        if (const auto resumed = try_resume_training(
                ckpt.path, model, cfg, stream_size, rng, res)) {
            start_epoch = *resumed;
        }
    }
    const std::size_t every =
        std::max<std::size_t>(1, ckpt.every_epochs);

    HealthMonitor monitor;
    // `health.skipped_steps` is process-wide; report this run's share.
    const std::uint64_t skipped_before = health_stats().skipped_steps;
    const auto finish = [&skipped_before](OnlineResult &r) {
        r.skipped_steps =
            health_stats().skipped_steps - skipped_before;
    };

    for (std::size_t e = start_epoch; e < n_epochs; ++e) {
        const std::size_t begin = epoch_begin(e);
        const std::size_t end = epoch_begin(e + 1);
        assert(begin < end && "every epoch must be non-empty");
        std::vector<std::size_t> indices;
        indices.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            indices.push_back(i);

        // Inference first: the model has only seen epochs < e.
        if (e > 0) {
            const auto t0 = std::chrono::steady_clock::now();
            auto preds = model.predict_on(indices, cfg.degree);
            res.inference_seconds += seconds_since(t0);
            assert(preds.size() == indices.size());
            for (std::size_t k = 0; k < indices.size(); ++k)
                res.predictions[indices[k]] = std::move(preds[k]);
            res.predicted_samples += indices.size();
        }

        // Then train on this epoch (or, cumulatively, on everything
        // seen so far) under the watchdog: an unhealthy verdict rolls
        // model and RNG back to the pre-epoch snapshot, backs off the
        // LR and retries; exhausting the retries (or lacking snapshot
        // support) degrades the run and returns early (§5.14).
        std::string snapshot;
        bool have_snapshot = false;
        const RngState rng_before = rng.state();
        try {
            std::ostringstream snap;
            model.save_state(snap);
            snapshot = std::move(snap).str();
            have_snapshot = true;
        } catch (const CheckpointError &) {
            // No snapshot support: any unhealthy epoch degrades
            // immediately instead of rolling back.
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t attempt = 0;; ++attempt) {
            std::vector<std::size_t> train_idx;
            if (cfg.cumulative) {
                train_idx.reserve(end);
                for (std::size_t i = 0; i < end; ++i)
                    train_idx.push_back(i);
            } else {
                train_idx = indices;
            }
            if (cfg.max_train_samples_per_epoch > 0 &&
                train_idx.size() > cfg.max_train_samples_per_epoch) {
                rng.shuffle(train_idx);
                train_idx.resize(cfg.max_train_samples_per_epoch);
                std::sort(train_idx.begin(), train_idx.end());
            }
            double loss = 0.0;
            for (std::size_t pass = 0; pass < cfg.train_passes;
                 ++pass) {
                loss = model.train_on(train_idx);
                res.trained_samples += train_idx.size();
            }
            loss = fault_injector().on_epoch_loss(e, loss);
            if (monitor.check(loss, model) == HealthVerdict::Healthy) {
                res.epoch_losses.push_back(loss);
                // The backoff is scoped to the retries: once the
                // epoch passes the health check, later epochs resume
                // at the configured rate (a recurrence next epoch
                // rolls back again). backoff^-(attempt-1) exactly
                // undoes the backoff^(attempt-1) in effect on this
                // attempt.
                if (attempt > 1)
                    model.scale_lr(
                        std::pow(kHealthLrBackoff,
                                 -static_cast<double>(attempt - 1)));
                break;
            }
            if (attempt >= kMaxHealthRetries || !have_snapshot) {
                res.degraded = true;
                ++health_stats().degraded_runs;
                res.train_seconds += seconds_since(t0);
                finish(res);
                return res;
            }
            std::istringstream snap(snapshot);
            model.load_state(snap);
            rng.set_state(rng_before);
            // First retry replays the epoch unchanged — a transient
            // fault (the common case) is gone on replay, and the
            // clean-retry result matches an unfaulted run exactly.
            // Later retries progressively back the LR off; load_state
            // restored the snapshot LR, so apply it after.
            if (attempt > 0) {
                model.scale_lr(std::pow(kHealthLrBackoff,
                                        static_cast<double>(attempt)));
                ++health_stats().lr_backoffs;
            }
            ++res.rollbacks;
            ++health_stats().rollbacks;
        }
        res.train_seconds += seconds_since(t0);
        model.on_epoch_end();

        // Checkpoint at the completed-epoch boundary: grads are
        // cleared by the optimizer step, so weights + moments + RNG +
        // cursor are the entire training state.
        const std::size_t done = e + 1;
        const bool stop = ckpt.stop_after_epochs > 0 &&
                          done >= ckpt.stop_after_epochs;
        if (ckpt.enabled() && done < n_epochs &&
            (stop || done % every == 0)) {
            save_training_checkpoint(ckpt.path, model, cfg,
                                     stream_size, done, rng, res);
        }
        if (stop) {
            finish(res);
            return res;
        }
    }
    finish(res);
    return res;
}

// ---------------------------------------------------------------------
// VoyagerAdapter
// ---------------------------------------------------------------------

VoyagerAdapter::VoyagerAdapter(const VoyagerConfig &cfg,
                               const std::vector<LlcAccess> &stream,
                               const VocabConfig &vocab_cfg)
    : cfg_(cfg), stream_(stream),
      vocab_(Vocabulary::build(stream, vocab_cfg)),
      encoded_(encode_stream(stream, vocab_)),
      labels_(compute_labels(stream)),
      model_(cfg, vocab_.num_pc_tokens(), vocab_.num_page_tokens(),
             vocab_.num_offset_tokens())
{
}

void
VoyagerAdapter::fill_histories(const std::vector<std::size_t> &indices,
                               VoyagerBatch &batch) const
{
    const std::size_t T = cfg_.seq_len;
    batch.batch = indices.size();
    batch.seq = T;
    batch.pc.resize(indices.size() * T);
    batch.page.resize(indices.size() * T);
    batch.offset.resize(indices.size() * T);
    for (std::size_t b = 0; b < indices.size(); ++b) {
        const std::size_t i = indices[b];
        assert(i + 1 >= T && i < encoded_.size());
        for (std::size_t t = 0; t < T; ++t) {
            const std::size_t s = i + 1 - T + t;
            batch.pc[b * T + t] = encoded_.pc[s];
            batch.page[b * T + t] = encoded_.page[s];
            batch.offset[b * T + t] = encoded_.offset[s];
        }
    }
}

bool
VoyagerAdapter::sample_labels(std::size_t i,
                              std::vector<TokenLabel> &labels) const
{
    labels.clear();
    const Addr prev_line = stream_[i].line;
    for (const Addr lab : distinct_labels(labels_[i], cfg_.schemes)) {
        const Token t = vocab_.encode(/*pc=*/0, lab, prev_line);
        if (t.page == Vocabulary::kOovPage)
            continue;
        const TokenLabel tl{t.page, t.offset};
        if (std::find(labels.begin(), labels.end(), tl) == labels.end())
            labels.push_back(tl);
    }
    return !labels.empty();
}

double
VoyagerAdapter::train_on(const std::vector<std::size_t> &indices)
{
    const std::size_t bs = cfg_.batch_size;
    std::vector<std::size_t> usable;
    usable.reserve(indices.size());
    std::vector<TokenLabel> labels;
    for (const std::size_t i : indices) {
        if (i + 1 < cfg_.seq_len || i >= stream_.size())
            continue;
        usable.push_back(i);
    }

    double loss_sum = 0.0;
    std::size_t batches = 0;
    VoyagerBatch batch;
    std::vector<std::size_t> chunk;
    for (std::size_t pos = 0; pos < usable.size(); pos += bs) {
        chunk.clear();
        batch.labels.clear();
        for (std::size_t k = pos;
             k < std::min(usable.size(), pos + bs); ++k) {
            if (!sample_labels(usable[k], labels))
                continue;  // nothing representable to learn
            chunk.push_back(usable[k]);
            batch.labels.push_back(labels);
        }
        if (chunk.empty())
            continue;
        fill_histories(chunk, batch);
        loss_sum += model_.train_step(batch);
        ++batches;
    }
    return batches ? loss_sum / static_cast<double>(batches) : 0.0;
}

std::vector<std::vector<Addr>>
VoyagerAdapter::predict_on(const std::vector<std::size_t> &indices,
                           std::uint32_t degree)
{
    const auto cands =
        predict_token_candidates(indices, degree + kDecodeOverFetch);
    std::vector<std::vector<Addr>> out(indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
        if (cands[j].empty())
            continue;  // no history (or past the stream): no forward
        const Addr prev_line = stream_[indices[j]].line;
        decode_candidates(
            cands[j], degree,
            [&](const TokenPrediction &p) {
                return vocab_.decode(p.page, p.offset, prev_line);
            },
            out[j]);
    }
    return out;
}

std::vector<std::vector<TokenPrediction>>
VoyagerAdapter::predict_token_candidates(
    const std::vector<std::size_t> &indices, std::size_t k)
{
    std::vector<std::vector<TokenPrediction>> out(indices.size());
    const std::size_t bs = cfg_.batch_size;
    VoyagerBatch batch;
    std::vector<std::size_t> chunk;
    std::vector<std::size_t> chunk_slots;
    for (std::size_t pos = 0; pos < indices.size(); pos += bs) {
        chunk.clear();
        chunk_slots.clear();
        for (std::size_t j = pos;
             j < std::min(indices.size(), pos + bs); ++j) {
            if (indices[j] + 1 < cfg_.seq_len ||
                indices[j] >= stream_.size())
                continue;
            chunk.push_back(indices[j]);
            chunk_slots.push_back(j);
        }
        if (chunk.empty())
            continue;
        fill_histories(chunk, batch);
        auto preds = predict_tokens(batch, k);
        for (std::size_t b = 0; b < chunk.size(); ++b)
            out[chunk_slots[b]] = std::move(preds[b]);
    }
    return out;
}

// ---------------------------------------------------------------------
// DeltaLstmAdapter
// ---------------------------------------------------------------------

DeltaLstmAdapter::DeltaLstmAdapter(const DeltaLstmConfig &cfg,
                                   const std::vector<LlcAccess> &stream)
    : cfg_(cfg), stream_(stream),
      vocab_(DeltaVocab::build(stream, cfg.max_deltas))
{
    // Precompute per-transition delta tokens and PC ids.
    delta_tokens_.assign(stream.size(), 0);
    pc_tokens_.assign(stream.size(), 0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i > 0) {
            const std::int64_t d =
                static_cast<std::int64_t>(stream[i].line) -
                static_cast<std::int64_t>(stream[i - 1].line);
            delta_tokens_[i] = vocab_.encode(d);
        }
        auto [it, inserted] = pc_ids_.try_emplace(
            stream[i].pc, static_cast<std::int32_t>(pc_ids_.size()) + 1);
        pc_tokens_[i] = it->second;
    }
    model_ = std::make_unique<DeltaLstmModel>(
        cfg_, static_cast<std::int32_t>(pc_ids_.size()) + 1,
        vocab_.size());
}

void
DeltaLstmAdapter::fill_histories(const std::vector<std::size_t> &indices,
                                 DeltaBatch &batch) const
{
    const std::size_t T = cfg_.seq_len;
    batch.batch = indices.size();
    batch.seq = T;
    batch.pc.resize(indices.size() * T);
    batch.delta.resize(indices.size() * T);
    for (std::size_t b = 0; b < indices.size(); ++b) {
        const std::size_t i = indices[b];
        for (std::size_t t = 0; t < T; ++t) {
            const std::size_t s = i + 1 - T + t;
            batch.pc[b * T + t] = pc_tokens_[s];
            batch.delta[b * T + t] = delta_tokens_[s];
        }
    }
}

double
DeltaLstmAdapter::train_on(const std::vector<std::size_t> &indices)
{
    const std::size_t bs = cfg_.batch_size;
    double loss_sum = 0.0;
    std::size_t batches = 0;
    DeltaBatch batch;
    std::vector<std::size_t> chunk;
    for (std::size_t pos = 0; pos < indices.size(); pos += bs) {
        chunk.clear();
        batch.labels.clear();
        for (std::size_t k = pos;
             k < std::min(indices.size(), pos + bs); ++k) {
            const std::size_t i = indices[k];
            if (i < cfg_.seq_len || i + 1 >= stream_.size())
                continue;
            const std::int32_t label = delta_tokens_[i + 1];
            if (label == 0)
                continue;  // next delta outside the vocabulary
            chunk.push_back(i);
            batch.labels.push_back(label);
        }
        if (chunk.empty())
            continue;
        fill_histories(chunk, batch);
        loss_sum += model_->train_step(batch);
        ++batches;
    }
    return batches ? loss_sum / static_cast<double>(batches) : 0.0;
}

std::vector<std::vector<Addr>>
DeltaLstmAdapter::predict_on(const std::vector<std::size_t> &indices,
                             std::uint32_t degree)
{
    std::vector<std::vector<Addr>> out(indices.size());
    const std::size_t bs = cfg_.batch_size;
    DeltaBatch batch;
    std::vector<std::size_t> chunk;
    std::vector<std::size_t> chunk_slots;
    for (std::size_t pos = 0; pos < indices.size(); pos += bs) {
        chunk.clear();
        chunk_slots.clear();
        for (std::size_t k = pos;
             k < std::min(indices.size(), pos + bs); ++k) {
            if (indices[k] < cfg_.seq_len ||
                indices[k] >= stream_.size())
                continue;
            chunk.push_back(indices[k]);
            chunk_slots.push_back(k);
        }
        if (chunk.empty())
            continue;
        fill_histories(chunk, batch);
        const auto preds = model_->predict(batch, degree + 1);
        for (std::size_t b = 0; b < chunk.size(); ++b) {
            const auto cur = static_cast<std::int64_t>(
                stream_[chunk[b]].line);
            decode_candidates(
                preds[b], degree,
                [&](const std::pair<std::int32_t, float> &p)
                    -> std::optional<Addr> {
                    const auto d = vocab_.decode(p.first);
                    if (!d)
                        return std::nullopt;
                    return static_cast<Addr>(cur + *d);
                },
                out[chunk_slots[b]]);
        }
    }
    return out;
}

}  // namespace voyager::core
