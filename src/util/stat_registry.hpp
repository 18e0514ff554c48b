/**
 * @file
 * Central observability registry: named counters, gauges, RunningStats
 * and Histograms under hierarchical dotted names (`sim.llc.miss`,
 * `train.epoch.loss`, `nn.gemm.flops`), with RAII phase timers and
 * versioned JSON/CSV emission (no third-party dependencies).
 *
 * Conventions (see DESIGN.md §5.11):
 *  - Names are dotted paths; segments are non-empty lower-case
 *    `[a-z0-9_+-]` (stat_name_segment() sanitizes free-form labels).
 *  - Names under a closed namespace (util/stat_schema.hpp) must be
 *    declared there with their kind.
 *  - Exporters *assign* values (`reg.counter(n) = v`) so re-exporting
 *    the same result is idempotent; only timers *accumulate*.
 *  - Wall-clock-dependent stats are registered volatile so golden-run
 *    comparisons can emit a deterministic document
 *    (`EmitOptions::include_volatile = false`).
 *
 * The registry is not thread-safe (the whole system is single-core,
 * single-threaded by design).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace voyager {

/** Emitted as `"version"` in every stats document. */
inline constexpr int kStatsSchemaVersion = 1;

/** Emitted as `"schema"` in every stats document. */
inline constexpr const char *kStatsSchemaName = "voyager-stats";

/** Kinds a registry entry can take. */
enum class StatKind : std::uint8_t
{
    Counter = 0,   ///< monotonic std::uint64_t
    Gauge = 1,     ///< point-in-time double
    Running = 2,   ///< RunningStat (count/mean/stddev/min/max/sum)
    Histogram = 3, ///< fixed-bucket Histogram with quantiles
};

/** "counter", "gauge", "running" or "histogram". */
const char *stat_kind_name(StatKind k);

/** JSON-escape a string (quotes, backslashes, control characters). */
std::string json_escape(std::string_view s);

/**
 * Shortest round-trip decimal representation of a double (via
 * std::to_chars), identical across runs; non-finite values become
 * `null` (JSON has no inf/nan).
 */
std::string json_number(double v);

/**
 * Sanitize a free-form label into one dotted-name segment: lower-case,
 * `[a-z0-9_+-]` kept, every other character replaced by '_'.
 */
std::string stat_name_segment(std::string_view label);

/** Emission switches for StatRegistry::write_json / write_csv. */
struct StatEmitOptions
{
    /** Include wall-clock-dependent stats (timers, rates). Turn off
     *  for golden-run/determinism comparisons. */
    bool include_volatile = true;
};

/**
 * A named collection of statistics. Factory getters are
 * get-or-create: requesting an existing name with the same kind
 * returns the existing entry; requesting it with a different kind (or
 * different histogram geometry) throws std::runtime_error — the name
 * collision the unit tests pin down. Creating a name also throws when
 * check_new_stat() rejects it: a bad segment, or a closed-namespace
 * name that is undeclared or declared with another kind.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Get-or-create a counter. References stay valid for the
     *  registry's lifetime (node-based storage). */
    std::uint64_t &counter(const std::string &name,
                           bool volatile_stat = false);

    /** Get-or-create a gauge. */
    double &gauge(const std::string &name, bool volatile_stat = false);

    /** Get-or-create a RunningStat. */
    RunningStat &running(const std::string &name,
                         bool volatile_stat = false);

    /** Get-or-create a Histogram over [lo, hi) with `buckets` bins. */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t buckets, bool volatile_stat = false);

    /** Set a string metadata entry (bench name, scale, ...). */
    void set_meta(const std::string &key, const std::string &value);

    bool has(const std::string &name) const;
    /** Kind of an existing entry. @throws std::runtime_error. */
    StatKind kind(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }
    void clear();

    using EmitOptions = StatEmitOptions;

    /** Write the full versioned JSON document (sorted names). */
    void write_json(std::ostream &os, const EmitOptions &opts = {}) const;

    /** Flat CSV: `name,kind,field,value` rows (sorted names). */
    void write_csv(std::ostream &os, const EmitOptions &opts = {}) const;

    /** write_json into a string. */
    std::string json(const EmitOptions &opts = {}) const;

    /**
     * The process-wide registry used by bench harnesses and module
     * code without an explicit registry parameter. Library exporters
     * all take an explicit registry; only harness-level timing flows
     * through the global instance.
     */
    static StatRegistry &global();

    /**
     * RAII phase timer: on destruction adds the elapsed seconds to the
     * volatile gauge `<name>.seconds` and increments the volatile
     * counter `<name>.count`.
     */
    class ScopedTimer
    {
      public:
        ScopedTimer(StatRegistry &reg, std::string name)
            : reg_(reg), name_(std::move(name)),
              t0_(std::chrono::steady_clock::now())
        {
        }

        ~ScopedTimer()
        {
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
            reg_.gauge(name_ + ".seconds", true) += secs;
            ++reg_.counter(name_ + ".count", true);
        }

        ScopedTimer(const ScopedTimer &) = delete;
        ScopedTimer &operator=(const ScopedTimer &) = delete;

      private:
        StatRegistry &reg_;
        std::string name_;
        std::chrono::steady_clock::time_point t0_;
    };

  private:
    struct Entry
    {
        StatKind kind = StatKind::Counter;
        bool volatile_stat = false;
        std::uint64_t counter = 0;
        double gauge = 0.0;
        std::unique_ptr<RunningStat> running;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &get_or_create(const std::string &name, StatKind kind,
                         bool volatile_stat);

    std::map<std::string, Entry> entries_;
    std::map<std::string, std::string> meta_;
};

}  // namespace voyager
