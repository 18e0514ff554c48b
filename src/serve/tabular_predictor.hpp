/**
 * @file
 * TabularPredictor (DESIGN.md §5.18): the distilled serving path. A
 * probe against the layered TabularTable answers warm rows in O(1);
 * rows whose context misses both levels — and every row of a tenant
 * whose rolling hit window has drifted below the configured floor —
 * are collected into one sub-batch and answered by the wrapped
 * neural TokenPredictor (fp32 or int8). Because the neural path is
 * batch-invariant (DESIGN.md §5.16), the fallback answers are
 * bit-identical to what a pure neural server would have produced.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tabular.hpp"
#include "serve/predictor.hpp"
#include "util/flat_hash.hpp"
#include "util/stat_registry.hpp"

namespace voyager::serve {

/** Drift-fallback knobs for the tabular serving path. */
struct TabularServeConfig
{
    /** Rolling per-tenant window length, in probe outcomes. */
    std::uint32_t drift_window = 64;
    /** Window hit-rate floor; below it the tenant is served neurally
     *  for the next `drift_window` rows, then probed again. */
    double min_hit_rate = 0.5;
};

/** Table probes with a batched neural fallback. */
class TabularPredictor final : public TokenPredictor
{
  public:
    /** Borrows both; keep the table and fallback alive while
     *  serving. */
    TabularPredictor(const core::TabularTable &table,
                     TokenPredictor &fallback,
                     const TabularServeConfig &cfg = {});

    std::size_t
    seq_len() const override
    {
        return fallback_.seq_len();
    }

    /** Tenant-blind entry point: all rows share tenant 0. */
    std::vector<std::vector<core::TokenPrediction>>
    predict_tokens(const core::VoyagerBatch &batch,
                   std::size_t k) override;

    std::vector<std::vector<core::TokenPrediction>>
    predict_tokens_for(const core::VoyagerBatch &batch, std::size_t k,
                       const std::vector<std::uint32_t> &tenants)
        override;

    std::optional<Addr>
    decode(std::int32_t page_token, std::int32_t offset_token,
           Addr prev_line) const override
    {
        return fallback_.decode(page_token, offset_token, prev_line);
    }

    std::string
    engine() const override
    {
        return "distilled";
    }

    /**
     * Export the closed `distill.serve.*` namespace: probe/hit/miss
     * counters per level, fallback row/batch counters, drift events,
     * and the overall table hit rate. Assigns values, so re-export is
     * idempotent.
     */
    void export_stats(StatRegistry &reg) const;

  private:
    /** Rolling per-tenant confidence window. */
    struct TenantState
    {
        std::uint32_t window_hits = 0;
        std::uint32_t window_total = 0;
        /** Rows left to serve neurally after a drift trip. */
        std::uint32_t forced_left = 0;
    };

    /** Record one window outcome; trips the drift fallback when the
     *  full window's hit rate lands below the floor. */
    void record(TenantState &ts, bool hit);

    const core::TabularTable &table_;
    TokenPredictor &fallback_;
    TabularServeConfig cfg_;
    FlatHashMap<std::uint32_t, TenantState> tenants_;

    // Serving statistics (deterministic; wall time is benched
    // outside, not here).
    std::uint64_t n_probes_ = 0;
    std::uint64_t n_l1_hits_ = 0;
    std::uint64_t n_l2_hits_ = 0;
    std::uint64_t n_misses_ = 0;
    std::uint64_t n_fallback_rows_ = 0;
    std::uint64_t n_fallback_batches_ = 0;
    std::uint64_t n_drift_events_ = 0;
    std::uint64_t n_drift_rows_ = 0;

    // Scratch reused across batches.
    core::VoyagerBatch sub_batch_;
    std::vector<std::size_t> miss_rows_;
    std::vector<core::TokenPrediction> probe_out_;
};

}  // namespace voyager::serve
