/**
 * @file
 * Internals shared by the workload runners (serve_workloads.cpp,
 * train_workload.cpp, sim_workload.cpp): the fixed inputs, the pass
 * loop, output checks and metric helpers.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "percentile.hpp"
#include "sim/prefetcher.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench::harness {

// Traces and model seeds never change with the run seed, so every
// deterministic output (served lines, accuracies, simulated IPC) is
// the same under every seed and two commits compare exactly.
inline constexpr std::uint64_t kTraceSeed = 1;
/** LLC accesses kept from a small-scale trace, as the figure benches
 *  do (bench/common.cpp's llc_cap at small scale). */
inline constexpr std::size_t kLlcCap = 20000;
/** Look-ahead window of both accuracy metrics (bench kUnifiedHorizon). */
inline constexpr std::size_t kHorizon = 32;
/** Set-ups per run: at least kSetupRepeats, and more while they took
 *  less than kSetupSeconds, so a short set-up is timed often enough for
 *  a steady median; setup_s is that median. */
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 1.5;
inline constexpr std::size_t kMaxSetupRepeats = 24;
inline constexpr std::size_t kMinPasses = 3;
/** Traced passes are capped so the span store stays a few MiB. */
inline constexpr std::size_t kMaxTracedPasses = 4;

/** The sim_rules prefetcher configurations; "none" is the baseline. */
const std::vector<std::string> &rule_prefetchers();

std::string fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));
double seconds_since(std::int64_t t0_ns);
/** Thread CPU seconds since `t0_cpu_ns`, a cpu_ns() reading. */
double cpu_seconds_since(std::int64_t t0_cpu_ns);
/** num / den, or 0 when den is not positive. */
double ratio(double num, double den);
/** A prefetcher name as a metric-name segment ("isb+bo" -> "isb_bo"). */
std::string label_of(const std::string &prefetcher);
/** Seed mixing for per-pass generators. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b);
/** One report line: a per-pass series as its quartiles and extremes. */
std::string pass_spread(const char *name, std::vector<double> v);

/** Collects failed output checks. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && failures_.size() < 20)
            failures_.push_back(what);
    }
    std::vector<std::string> take() { return std::move(failures_); }

  private:
    std::vector<std::string> failures_;
};

/** Move the calling thread to the allowed CPU that runs a short block
 *  of independent multiply-adds fastest; does nothing where affinity
 *  cannot be set. */
void move_to_quietest_cpu();

/** Run `pass(i)` until `seconds` have passed and at least `min_passes`
 *  ran, at most `max_passes` times, each on the CPU that is quietest
 *  just before it. @return passes run. */
template <class Pass>
std::size_t
run_passes(double seconds, std::size_t min_passes, std::size_t max_passes,
           Pass &&pass)
{
    const std::int64_t t0 = now_ns();
    std::size_t n = 0;
    while (n < max_passes &&
           (n < min_passes || seconds_since(t0) < seconds)) {
        move_to_quietest_cpu();
        pass(n++);
    }
    return n;
}

/** What a workload runner measured. */
struct Measured
{
    /** Thread CPU seconds of each set-up; their median is setup_s. */
    std::vector<double> setup_s;
    /** Wall seconds of each set-up, for the report. */
    std::vector<double> setup_wall_s;
    /** Median over untraced passes of the pass's work per thread CPU
     *  second. */
    double work_per_s = 0.0;
    /** Median of the item latencies pooled over every untraced pass. */
    double latency_p50_us = 0.0;
    /** Median over untraced passes of the pass's own p99, which a
     *  burst of host interference in a few passes cannot move. */
    double latency_p99_us = 0.0;
    /** Peak resident set after set-up and the first untraced pass,
     *  before the benchmark's own latency pool has grown. */
    double peak_rss_mib = 0.0;
    /** The workload's deterministic output quality. */
    double quality = 0.0;
    /** Median traced-pass work rate (per CPU second), for the tracing
     *  overhead. */
    double traced_work_per_s = 0.0;
    /** Per-layer metrics by name (traced runs). */
    std::map<std::string, double> layer;
};

/** Set the median per-CPU-second work rate over passes; report it and
 *  the per-wall-second rate with their spreads. */
void set_work_rate(Measured &m, const std::vector<double> &cpu_rate,
                   const std::vector<double> &wall_rate, const char *name,
                   Result &res);

/** Item latencies of every untraced pass, pooled, plus each pass's
 *  own median and p99. */
struct LatencyPool
{
    std::vector<double> samples;
    std::vector<double> pass_p50;
    std::vector<double> pass_p99;

    void add_pass(const std::vector<double> &us);
};

/** Set the latency metrics from the pool; checks that every pass timed
 *  enough items for its own p99. */
void set_latency(Measured &m, LatencyPool pool, const char *what,
                 Result &res, Checks &chk);

/** The scaled Voyager profile of the small-scale figure benches. */
voyager::core::VoyagerConfig scaled_voyager_config();

/** Generate a small-scale trace and its first kLlcCap LLC accesses,
 *  under "trace.gen" and "sim.extract" spans. */
std::vector<voyager::sim::LlcAccess>
small_llc_stream(const std::string &benchmark, SpanRecorder *rec);

/** Microseconds per row of rank_token_predictions on random logits of
 *  the given shape. */
double rank_us_per_row(std::size_t rows, std::int32_t pages,
                       std::int32_t offsets, std::size_t k,
                       std::uint64_t seed);

/** nn op counters accumulated since the last reset, as per-layer
 *  metrics; `model_s` is the wall time of the calls that ran them. */
void nn_metrics(std::map<std::string, double> &m, double model_s);

/** Workload runners. A non-null `rec` makes the run traced. */
Measured run_serve(const Options &opt, bool tabular, SpanRecorder *rec,
                   Result &res, Checks &chk);
Measured run_train(const Options &opt, SpanRecorder *rec, Result &res,
                   Checks &chk);
Measured run_sim(const Options &opt, SpanRecorder *rec, Result &res,
                 Checks &chk);

}  // namespace perfbench::harness
