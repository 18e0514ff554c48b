/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark
 * records a span around each call it makes into a layer (and the
 * wrappers in wrappers.hpp record one around each call the program
 * makes through a wrapped interface); spans are kept in memory and
 * written out when the run ends. Spans close in stack order, so a
 * child always lies inside its parent; a span's self time is its
 * duration minus its children's durations.
 *
 * Calls too short and too frequent to store one record each
 * (prefetcher on_access, candidate decode) are summed into the open
 * span as an aggregate child: a name, a call count and a total time.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
std::int64_t now_ns();

/** CPU time of the calling thread in nanoseconds. It leaves out the
 *  time the thread was not running, but one read is a system call, so
 *  it times whole passes and calls, not single items. */
std::int64_t cpu_ns();

/** Sentinel for "no request" on spans outside the request path. */
inline constexpr std::uint64_t kNoRequest = ~0ull;

/** One recorded interval. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root (a phase). */
    std::int32_t parent = -1;
    std::uint64_t request = kNoRequest;
    /** Duration minus the time of child spans and aggregates; set
     *  when the span closes. */
    std::int64_t self_ns = 0;
};

/** Summed calls of one short operation under one parent span. */
struct Aggregate
{
    std::string name;
    std::int32_t parent = -1;
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
};

/** Per-name totals over a recording. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
    double self_seconds = 0.0;
};

/** Totals of `name` in a totals() map; zero when it never ran. */
LayerTotals totals_of(const std::map<std::string, LayerTotals> &totals,
                      const std::string &name);

/** Single-thread span stack and store. */
class SpanRecorder
{
  public:
    /** Open a span under the innermost open one. @return its index. */
    std::int32_t open(std::string name, std::uint64_t request = kNoRequest);

    /** Close the innermost open span, which must be `id`. */
    void close(std::int32_t id);

    /** Charge one call of `ns` nanoseconds to the aggregate `name`
     *  under the innermost open span, which must exist. */
    void add(const std::string &name, std::int64_t ns);

    const std::vector<Span> &spans() const { return spans_; }
    /** Aggregates of closed spans, one per (span, name). */
    const std::vector<Aggregate> &aggregates() const { return aggs_; }

    /** Calls, total and self seconds per span or aggregate name. */
    std::map<std::string, LayerTotals> totals() const;

    /**
     * For each root span (phase) named `phase`: the summed self time
     * of every span and aggregate below it, keyed by name, plus the
     * root's own self time under the key "unattributed". The values
     * sum to the phase's duration.
     */
    std::map<std::string, double> attribution(const std::string &phase) const;

    /** Write all spans and aggregates as tab-separated text. */
    void write(const std::string &path) const;

  private:
    /** An open span: the time its children took so far and the
     *  aggregates charged to it. */
    struct Frame
    {
        std::int32_t id;
        std::int64_t child_ns = 0;
        std::vector<Aggregate> aggs;
    };

    std::int32_t root_of(std::int32_t id) const;

    std::vector<Span> spans_;
    std::vector<Aggregate> aggs_;
    std::vector<Frame> stack_;
};

/** RAII span; a no-op when the recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name,
               std::uint64_t request = kNoRequest)
        : rec_(rec), id_(rec ? rec->open(std::move(name), request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    std::int32_t id_;
};

}  // namespace perfbench
