/**
 * @file
 * Forwarding wrappers over the program's public virtual interfaces.
 * Each one records a span (or an aggregate, for calls too frequent to
 * store one record each) around every call the program makes through
 * the interface, and counts the work the call carried. They change no
 * output: every call forwards its arguments unchanged and returns the
 * wrapped object's result.
 *
 * With a null recorder TracedPredictor and TracedModel only keep their
 * totals; the train_online workload uses TracedModel that way in
 * untraced runs, where its few calls per epoch give the Fig-17 train
 * and predict times.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "serve/predictor.hpp"
#include "sim/prefetcher.hpp"
#include "spans.hpp"

namespace perfbench {

/** Calls, carried work items, and wall and thread CPU time through
 *  one wrapper. */
struct CallTotals
{
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
    double seconds = 0.0;
    double cpu_seconds = 0.0;

    void
    add(const CallTotals &o)
    {
        calls += o.calls;
        items += o.items;
        seconds += o.seconds;
        cpu_seconds += o.cpu_seconds;
    }
};

/** serve::TokenPredictor wrapper: spans `name` per batched forward;
 *  when `time_decode`, aggregates decode calls as "serve.decode". */
class TracedPredictor final : public voyager::serve::TokenPredictor
{
  public:
    TracedPredictor(voyager::serve::TokenPredictor &inner,
                    SpanRecorder *rec, std::string name, bool time_decode)
        : inner_(inner), rec_(rec), name_(std::move(name)),
          time_decode_(time_decode)
    {
    }

    std::size_t seq_len() const override { return inner_.seq_len(); }

    std::vector<std::vector<voyager::core::TokenPrediction>>
    predict_tokens(const voyager::core::VoyagerBatch &batch,
                   std::size_t k) override
    {
        const std::int64_t t0 = now_ns();
        ScopedSpan span(rec_, name_);
        auto out = inner_.predict_tokens(batch, k);
        charge(batch.batch, t0);
        return out;
    }

    std::vector<std::vector<voyager::core::TokenPrediction>>
    predict_tokens_for(const voyager::core::VoyagerBatch &batch,
                       std::size_t k,
                       const std::vector<std::uint32_t> &tenants) override
    {
        const std::int64_t t0 = now_ns();
        ScopedSpan span(rec_, name_);
        auto out = inner_.predict_tokens_for(batch, k, tenants);
        charge(batch.batch, t0);
        return out;
    }

    std::optional<voyager::Addr>
    decode(std::int32_t page_token, std::int32_t offset_token,
           voyager::Addr prev_line) const override
    {
        if (!time_decode_ || rec_ == nullptr)
            return inner_.decode(page_token, offset_token, prev_line);
        const std::int64_t t0 = now_ns();
        auto line = inner_.decode(page_token, offset_token, prev_line);
        rec_->add("serve.decode", now_ns() - t0);
        return line;
    }

    std::string engine() const override { return inner_.engine(); }

    /** Forward calls and the batch rows they carried. */
    const CallTotals &totals() const { return totals_; }

  private:
    void
    charge(std::size_t rows, std::int64_t t0)
    {
        ++totals_.calls;
        totals_.items += rows;
        totals_.seconds += static_cast<double>(now_ns() - t0) * 1e-9;
    }

    voyager::serve::TokenPredictor &inner_;
    SpanRecorder *rec_;
    std::string name_;
    bool time_decode_;
    CallTotals totals_;
};

/** core::SequenceModel wrapper: spans "core.train_on" and
 *  "core.predict_on" and counts the samples each call carried. */
class TracedModel final : public voyager::core::SequenceModel
{
  public:
    TracedModel(voyager::core::SequenceModel &inner, SpanRecorder *rec)
        : inner_(inner), rec_(rec)
    {
    }

    std::string name() const override { return inner_.name(); }

    double
    train_on(const std::vector<std::size_t> &indices) override
    {
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        ScopedSpan span(rec_, "core.train_on");
        const double loss = inner_.train_on(indices);
        charge(train_, indices.size(), t0, c0);
        return loss;
    }

    std::vector<std::vector<voyager::Addr>>
    predict_on(const std::vector<std::size_t> &indices,
               std::uint32_t degree) override
    {
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        ScopedSpan span(rec_, "core.predict_on");
        auto out = inner_.predict_on(indices, degree);
        charge(predict_, indices.size(), t0, c0);
        return out;
    }

    void on_epoch_end() override { inner_.on_epoch_end(); }
    std::uint64_t parameter_bytes() const override
    {
        return inner_.parameter_bytes();
    }
    void save_state(std::ostream &os) const override
    {
        inner_.save_state(os);
    }
    void load_state(std::istream &is) override { inner_.load_state(is); }
    bool state_finite() const override { return inner_.state_finite(); }
    void scale_lr(double factor) override { inner_.scale_lr(factor); }

    const CallTotals &train_totals() const { return train_; }
    const CallTotals &predict_totals() const { return predict_; }

  private:
    static void
    charge(CallTotals &t, std::size_t samples, std::int64_t t0,
           std::int64_t c0)
    {
        ++t.calls;
        t.items += samples;
        t.cpu_seconds += static_cast<double>(cpu_ns() - c0) * 1e-9;
        t.seconds += static_cast<double>(now_ns() - t0) * 1e-9;
    }

    voyager::core::SequenceModel &inner_;
    SpanRecorder *rec_;
    CallTotals train_;
    CallTotals predict_;
};

/** sim::Prefetcher wrapper: aggregates on_access calls as
 *  "prefetch.<label>.on_access" under the enclosing span. Used only in
 *  traced runs, so it always records. */
class TracedPrefetcher final : public voyager::sim::Prefetcher
{
  public:
    TracedPrefetcher(voyager::sim::Prefetcher &inner, SpanRecorder &rec,
                     const std::string &label)
        : inner_(inner), rec_(rec),
          span_name_("prefetch." + label + ".on_access")
    {
    }

    std::string name() const override { return inner_.name(); }

    std::vector<voyager::Addr>
    on_access(const voyager::sim::LlcAccess &access) override
    {
        const std::int64_t t0 = now_ns();
        auto out = inner_.on_access(access);
        rec_.add(span_name_, now_ns() - t0);
        return out;
    }

    std::uint64_t storage_bytes() const override
    {
        return inner_.storage_bytes();
    }

    void
    export_stats(voyager::StatRegistry &reg,
                 const std::string &prefix) const override
    {
        inner_.export_stats(reg, prefix);
    }

  private:
    voyager::sim::Prefetcher &inner_;
    SpanRecorder &rec_;
    std::string span_name_;
};

}  // namespace perfbench
