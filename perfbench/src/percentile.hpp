/**
 * @file
 * The benchmark's timing summary rule: a median plus the highest
 * percentile that still has at least ten samples beyond it, reported
 * with the sample count so a tail figure is never read off too few
 * samples.
 */
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/** Fewest samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kTailMinBeyond = 10;

/** Median and supported tail of one set of timings. */
struct TimingSummary
{
    std::size_t n = 0;
    double p50 = 0.0;
    /** Tail percentile in percent (99, 90 or 50); 0 when even the
     *  median lacks ten samples beyond it. */
    double tail_pct = 0.0;
    double tail = 0.0;
};

/**
 * Nearest-rank percentile of sorted samples: the value at 0-based
 * rank ceil(q * n) - 1 (at least 0). @pre !sorted.empty().
 */
double percentile_sorted(const std::vector<double> &sorted, double q);

/** Samples strictly above rank ceil(q * n) - 1. */
std::size_t samples_beyond(std::size_t n, double q);

/** Median of `v` (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Summarize `samples`; the tail is the highest of p99, p90 and p50
 *  with at least kTailMinBeyond samples beyond it. Every workload
 *  times at least 1000 items per pass, so its tail is p99. */
TimingSummary summarize(std::vector<double> samples);

}  // namespace perfbench
