/**
 * @file
 * Evaluation metrics: the unified accuracy/coverage metric (paper
 * §5.1, after Srivastava et al.) and the access-pattern breakdown of
 * Figs. 10/11. Also a helper to run a rule-based prefetcher over an
 * extracted LLC stream so neural and rule-based predictors are scored
 * by identical machinery.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/types.hpp"

namespace voyager::core {

using sim::LlcAccess;

/** Unified accuracy/coverage outcome. */
struct UnifiedMetric
{
    std::uint64_t correct = 0;
    std::uint64_t evaluated = 0;   ///< accesses with a prediction slot

    double
    value() const
    {
        return evaluated ? static_cast<double>(correct) /
                               static_cast<double>(evaluated)
                         : 0.0;
    }
};

/**
 * Unified accuracy/coverage: a prediction at access i is correct iff
 * one of its predicted lines is an actual *load* line among the next
 * `horizon` accesses (horizon=1 is the strict next-load-address form;
 * the default 10 matches the co-occurrence window, crediting every
 * labeling scheme the model may have chosen — see EXPERIMENTS.md).
 *
 * Accesses before `first_index` (epoch 0, no inference) are skipped.
 */
UnifiedMetric unified_accuracy_coverage(
    const std::vector<LlcAccess> &stream,
    const std::vector<std::vector<Addr>> &predictions,
    std::size_t first_index, std::size_t horizon = 10);

/**
 * Per-access covered flags: access i counts covered when some
 * prediction made within the previous `horizon` accesses named its
 * line. Used by the Fig. 10/11 breakdown.
 */
std::vector<std::uint8_t>
covered_flags(const std::vector<LlcAccess> &stream,
              const std::vector<std::vector<Addr>> &predictions,
              std::size_t first_index, std::size_t horizon = 32);

/** Fig. 10/11 pattern classes. */
struct PatternBreakdown
{
    std::uint64_t covered_spatial = 0;
    std::uint64_t covered_non_spatial = 0;
    std::uint64_t uncovered_spatial = 0;
    std::uint64_t uncovered_cooccurrence = 0;   ///< top-10 follower
    std::uint64_t uncovered_other = 0;
    std::uint64_t uncovered_compulsory = 0;     ///< first-ever line
    std::uint64_t total = 0;

    double frac(std::uint64_t x) const
    {
        return total ? static_cast<double>(x) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Classify each (evaluated) access by how it relates to its
 * predecessor and whether the predictor covered it:
 *  - spatial: |Δline| from the previous access <= kSpatialRange
 *  - compulsory: first occurrence of the line in the whole stream
 *  - co-occurrence-k: the line is one of the k most frequent followers
 *    of the previous line (k = 10 as in the paper)
 */
PatternBreakdown classify_patterns(
    const std::vector<LlcAccess> &stream,
    const std::vector<std::uint8_t> &covered, std::size_t first_index);

/**
 * Run a rule-based prefetcher over an LLC stream, recording its
 * candidates per index (the replay form used for breakdowns and
 * unified metrics).
 */
std::vector<std::vector<Addr>>
run_prefetcher_on_stream(sim::Prefetcher &pf,
                         const std::vector<LlcAccess> &stream);

/**
 * Degraded-mode fallback (DESIGN.md §5.14): replay the ISB+BO hybrid
 * — the paper's strongest rule-based baseline (Figs. 5-8) — over the
 * stream at `degree`. One shared entry point for bench fallback
 * wiring and tests, so a degraded run's predictions are bit-for-bit
 * those of the standalone hybrid at the same degree.
 */
std::vector<std::vector<Addr>>
isb_bo_fallback_predictions(const std::vector<LlcAccess> &stream,
                            std::uint32_t degree);

}  // namespace voyager::core
