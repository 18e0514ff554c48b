/**
 * @file
 * StreamGroup: an enhanced stream prefetcher built as a stronger
 * rule-based baseline for regular (AI-inference style) workloads
 * (DESIGN.md §5.17).
 *
 * Three mechanisms on top of the classic per-PC stride table:
 *
 *  1. Multiple streams per PC. Transformer kernels interleave several
 *     strided walks issued by the *same* instruction (one per head, or
 *     one per tenant); a single-entry-per-PC table thrashes on these.
 *     Each PC owns a small set-associative group of streams and an
 *     access is matched to the stream it continues.
 *  2. Stride classification with a confidence-ramped degree. Streams
 *     are classified DENSE / MEDIUM / SPARSE by stride magnitude and
 *     observed run length; the prefetch degree ramps from 1 up to the
 *     class cap as the run lengthens, so mispredictions during
 *     training stay cheap while established dense streams run ahead.
 *  3. A repetition fast-track. When a stream terminates (its stride
 *     breaks, or it is evicted) after a long run, its (pc, stride)
 *     pattern is remembered; a new stream at the same PC that adopts
 *     the same stride within the reuse window skips the confidence
 *     training phase and immediately prefetches at the learned run's
 *     degree. Weight-matrix streams re-entered once per layer per
 *     token benefit on every revisit.
 *
 * Compatibility contract (pinned by tests/stream_group_test.cpp): on a
 * pure single-stride stream whose stride magnitude is within the dense
 * class, a StreamGroup with max_degree == D issues, after warm-up,
 * exactly the predictions IpStride(D) issues — same lines, same order,
 * on the same accesses.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/prefetcher.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Enhanced stream prefetcher (see file header). */
class StreamGroup final : public Prefetcher
{
  public:
    /** @param max_degree degree cap for established dense streams */
    explicit StreamGroup(std::uint32_t max_degree = 4)
        : max_degree_(max_degree)
    {
    }

    /** Degree cap for medium streams. */
    static constexpr std::uint32_t kMediumDegree = 2;
    /** Degree cap for sparse streams (everything else). */
    static constexpr std::uint32_t kSparseDegree = 1;
    /** |stride| (lines) at or below which a stream can be dense. */
    static constexpr std::int64_t kDenseStride = 2;
    /** |stride| (lines) at or below which a stream can be medium. */
    static constexpr std::int64_t kMediumStride = 16;
    /** Run length required for the dense degree cap. */
    static constexpr std::uint32_t kDenseMinRun = 8;
    /** Run length required for the medium degree cap. */
    static constexpr std::uint32_t kMediumMinRun = 4;
    /** An access within this many lines of a stream's head may be
     *  matched to it; farther accesses allocate a new stream. */
    static constexpr std::int64_t kMatchWindow = 64;
    /** Bound on tracked PCs (table associativity is kStreamsPerPc). */
    static constexpr std::size_t kMaxPcs = 256;
    /** Streams tracked concurrently per PC. */
    static constexpr std::size_t kStreamsPerPc = 4;
    /** Terminated-pattern history entries for the fast-track. */
    static constexpr std::size_t kHistorySize = 16;
    /** Accesses within which a terminated pattern may fast-track. */
    static constexpr std::uint64_t kHistoryWindow = 4096;
    /** Minimum run length for a terminated stream to be remembered. */
    static constexpr std::uint32_t kHistoryMinRun = 4;
    /** Streams in a stride group at least this large (and past the
     *  confidence threshold) are protected from eviction. */
    static constexpr std::uint32_t kProtectMembers = 2;

    std::string name() const override { return "stream_group"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;
    void export_stats(StatRegistry &reg,
                      const std::string &prefix) const override;

    /** PCs currently tracked (bounded by kMaxPcs). */
    std::size_t table_pcs() const { return table_.size(); }
    /** Streams allocated over the run. */
    std::uint64_t streams_created() const { return streams_created_; }
    /** Streams whose training phase was skipped by the fast-track. */
    std::uint64_t fast_tracks() const { return fast_tracks_; }
    /** Valid streams evicted from a PC's group. */
    std::uint64_t stream_evictions() const { return stream_evictions_; }
    /** Whole PC entries evicted from the table. */
    std::uint64_t pc_evictions() const { return pc_evictions_; }
    /** Terminated patterns recorded into the fast-track history. */
    std::uint64_t patterns_recorded() const { return patterns_recorded_; }
    /** Live streams currently sharing the given stride. */
    std::uint32_t
    group_size(std::int64_t stride) const
    {
        auto it = groups_.find(stride);
        return it == groups_.end() ? 0 : it->second;
    }
    /** True when the stream tracking (pc, stride) is currently
     *  established enough to predict (test hook). */
    bool is_established(Addr pc, std::int64_t stride) const;

  private:
    /** One tracked stream. */
    struct Stream
    {
        Addr last_line = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
        std::uint32_t run_length = 0;
        std::uint64_t last_access = 0;
        bool valid = false;
    };

    /** Per-PC stream set. */
    struct Entry
    {
        std::vector<Stream> streams;
        std::uint64_t last_access = 0;
    };

    /** A terminated stream remembered for the fast-track. */
    struct Pattern
    {
        Addr pc = 0;
        std::int64_t stride = 0;
        std::uint32_t run_length = 0;
        std::uint64_t time = 0;
    };

    Entry &lookup_entry(Addr pc);
    Stream *match_stream(Entry &e, Addr line);
    Stream &allocate_stream(Entry &e, Addr pc);
    void retire_stride(Addr pc, Stream &s);
    void set_stride(Addr pc, Stream &s, std::int64_t stride);
    std::uint32_t class_cap(std::int64_t stride,
                            std::uint32_t run_length) const;
    bool stream_protected(const Stream &s) const;

    std::uint32_t max_degree_;
    std::uint64_t access_counter_ = 0;
    std::unordered_map<Addr, Entry> table_;
    /** stride -> number of live streams using it (group sizes). */
    std::unordered_map<std::int64_t, std::uint32_t> groups_;
    std::deque<Pattern> history_;

    std::uint64_t streams_created_ = 0;
    std::uint64_t fast_tracks_ = 0;
    std::uint64_t stream_evictions_ = 0;
    std::uint64_t pc_evictions_ = 0;
    std::uint64_t patterns_recorded_ = 0;
    std::uint64_t prefetches_issued_ = 0;
};

}  // namespace voyager::prefetch
