/**
 * @file
 * Multi-label generation (paper §4.4). For every access, five
 * candidate labels are derived from the future stream:
 *   global        — next load in the global stream
 *   pc            — next load by the same PC
 *   basic_block   — next load by any PC in the same basic block
 *   spatial       — next load within ±256 lines
 *   co_occurrence — the line most often seen in the 10-access window
 *                   after occurrences of this line
 * Voyager trains against the union (multi-label BCE) or a chosen
 * single scheme (the Fig. 12/15 ablations).
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/types.hpp"

namespace voyager::core {

using sim::LlcAccess;

/** The five labeling/localization schemes. */
enum class LabelScheme : std::uint8_t
{
    Global = 0,
    Pc = 1,
    BasicBlock = 2,
    Spatial = 3,
    CoOccurrence = 4,
};

inline constexpr std::size_t kNumLabelSchemes = 5;

/** Human-readable scheme name. */
std::string label_scheme_name(LabelScheme s);

/** Every scheme, in enum order. */
std::vector<LabelScheme> all_label_schemes();

/** Spatial label window: |Δline| <= this (paper: 256). Pattern
 *  breakdowns (classify_patterns) use the same range. */
inline constexpr std::int64_t kSpatialRange = 256;
/** Max lookahead when searching for the spatial label. Kept close to
 *  the evaluation horizon so every labeling scheme's target is a
 *  near-future access (see EXPERIMENTS.md). */
inline constexpr std::size_t kSpatialHorizon = 32;
/** Co-occurrence future window (paper: 10). */
inline constexpr std::size_t kCooccurrenceWindow = 10;
/** Basic-block id = pc >> this (trace layout uses 256 B blocks). */
inline constexpr int kBasicBlockShift = 8;
/** Max lookahead (in accesses) for the global/PC/basic-block labels.
 *  A label farther in the future cannot be scored (or usefully
 *  prefetched) at miniature scale. */
inline constexpr std::size_t kLabelHorizon = 32;

/** The candidate labels of one access (line addresses). */
using LabelSet =
    std::array<std::optional<Addr>, kNumLabelSchemes>;

/**
 * Compute all five label streams for an LLC access stream. Labels are
 * always *load* lines (the paper's prefetch targets are load
 * addresses).
 */
std::vector<LabelSet> compute_labels(const std::vector<LlcAccess> &stream);

/** Distinct label lines of a set restricted to `enabled` schemes. */
std::vector<Addr> distinct_labels(const LabelSet &set,
                                  const std::vector<LabelScheme> &enabled);

}  // namespace voyager::core
