/**
 * @file
 * TabularPredictor implementation: per-row table probes, per-tenant
 * drift tracking, and the gathered neural fallback sub-batch.
 */
#include "serve/tabular_predictor.hpp"

#include <cassert>

namespace voyager::serve {

TabularPredictor::TabularPredictor(const core::TabularTable &table,
                                   TokenPredictor &fallback,
                                   const TabularServeConfig &cfg)
    : table_(table), fallback_(fallback), cfg_(cfg)
{
    assert(cfg_.drift_window > 0);
}

void
TabularPredictor::record(TenantState &ts, bool hit)
{
    ts.window_hits += hit ? 1 : 0;
    ++ts.window_total;
    if (ts.window_total < cfg_.drift_window)
        return;
    const bool drifted =
        static_cast<double>(ts.window_hits) <
        cfg_.min_hit_rate * static_cast<double>(ts.window_total);
    if (drifted) {
        ts.forced_left = cfg_.drift_window;
        ++n_drift_events_;
    }
    ts.window_hits = 0;
    ts.window_total = 0;
}

std::vector<std::vector<core::TokenPrediction>>
TabularPredictor::predict_tokens(const core::VoyagerBatch &batch,
                                 std::size_t k)
{
    const std::vector<std::uint32_t> tenants(batch.batch, 0);
    return predict_tokens_for(batch, k, tenants);
}

std::vector<std::vector<core::TokenPrediction>>
TabularPredictor::predict_tokens_for(
    const core::VoyagerBatch &batch, std::size_t k,
    const std::vector<std::uint32_t> &tenants)
{
    assert(tenants.size() == batch.batch);
    const std::size_t T = batch.seq;
    std::vector<std::vector<core::TokenPrediction>> out(batch.batch);
    miss_rows_.clear();
    for (std::size_t b = 0; b < batch.batch; ++b) {
        TenantState &ts = tenants_[tenants[b]];
        if (ts.forced_left > 0) {
            // Drifted tenant: sit out the table for a full window.
            --ts.forced_left;
            ++n_drift_rows_;
            miss_rows_.push_back(b);
            continue;
        }
        ++n_probes_;
        const auto level = table_.probe(
            batch.pc[b * T + T - 1], batch.page.data() + b * T,
            batch.offset.data() + b * T, T, probe_out_);
        if (level == core::TabularTable::ProbeLevel::Miss) {
            ++n_misses_;
            record(ts, false);
            miss_rows_.push_back(b);
            continue;
        }
        if (level == core::TabularTable::ProbeLevel::L1)
            ++n_l1_hits_;
        else
            ++n_l2_hits_;
        record(ts, true);
        if (probe_out_.size() > k)
            probe_out_.resize(k);
        out[b] = probe_out_;
    }

    if (!miss_rows_.empty()) {
        // One gathered neural forward for every cold/drifted row.
        // The neural path is batch-invariant, so these answers match
        // a pure neural server bit for bit.
        sub_batch_.batch = miss_rows_.size();
        sub_batch_.seq = T;
        sub_batch_.pc.resize(miss_rows_.size() * T);
        sub_batch_.page.resize(miss_rows_.size() * T);
        sub_batch_.offset.resize(miss_rows_.size() * T);
        sub_batch_.labels.clear();
        for (std::size_t j = 0; j < miss_rows_.size(); ++j) {
            const std::size_t b = miss_rows_[j];
            for (std::size_t t = 0; t < T; ++t) {
                sub_batch_.pc[j * T + t] = batch.pc[b * T + t];
                sub_batch_.page[j * T + t] = batch.page[b * T + t];
                sub_batch_.offset[j * T + t] =
                    batch.offset[b * T + t];
            }
        }
        auto preds = fallback_.predict_tokens(sub_batch_, k);
        assert(preds.size() == miss_rows_.size());
        for (std::size_t j = 0; j < miss_rows_.size(); ++j)
            out[miss_rows_[j]] = std::move(preds[j]);
        n_fallback_rows_ += miss_rows_.size();
        ++n_fallback_batches_;
    }
    return out;
}

void
TabularPredictor::export_stats(StatRegistry &reg) const
{
    reg.counter("distill.serve.probes") = n_probes_;
    reg.counter("distill.serve.l1_hits") = n_l1_hits_;
    reg.counter("distill.serve.l2_hits") = n_l2_hits_;
    reg.counter("distill.serve.misses") = n_misses_;
    reg.counter("distill.serve.fallback_rows") = n_fallback_rows_;
    reg.counter("distill.serve.fallback_batches") =
        n_fallback_batches_;
    reg.counter("distill.serve.drift_events") = n_drift_events_;
    reg.counter("distill.serve.drift_rows") = n_drift_rows_;
    reg.counter("distill.serve.tenants") = tenants_.size();
    const std::uint64_t hits = n_l1_hits_ + n_l2_hits_;
    reg.gauge("distill.serve.hit_rate") =
        n_probes_ ? static_cast<double>(hits) /
                        static_cast<double>(n_probes_)
                  : 0.0;
}

}  // namespace voyager::serve
