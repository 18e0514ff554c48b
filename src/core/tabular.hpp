/**
 * @file
 * Tabularized serving tables (DESIGN.md §5.18): the Zhang et al. 2024
 * ("Attention, Distillation, and Tabularization") route to a practical
 * prefetcher. A distillation pass runs the trained Voyager over its
 * training stream and compiles (page-history, pc, offset) contexts
 * into two layered lookup tables — a first-level exact-context table
 * over the last `l1_history` (page, offset) token pairs and a
 * second-level backoff table over a shorter history — so steady-state
 * serving is pure table probes, with the neural path kept as a
 * fallback for cold contexts (serve/tabular_predictor.hpp).
 *
 * Both levels live in util::FlatHashMap under a strict byte budget:
 * capacity is `budget_bytes` split across the levels, each entry
 * charged by a fixed per-entry storage model (key tag + frequency +
 * replacement metadata + `degree` candidate slots). Admission and
 * eviction are frequency-weighted: entries age through a CLOCK sweep
 * that halves a victim candidate's frequency until one reaches zero,
 * so recurring contexts survive churn and one-shot contexts recycle
 * their slots.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "core/vocab.hpp"
#include "util/flat_hash.hpp"
#include "util/stat_registry.hpp"

namespace voyager::core {

/** Distillation/table parameters. */
struct TabularConfig
{
    /** (page, offset) token pairs hashed into the L1 exact context. */
    std::size_t l1_history = 4;
    /** Backoff context length; must be shorter than l1_history. */
    std::size_t l2_history = 1;
    /** Include the newest PC token in both context keys. */
    bool use_pc = true;
    /** Candidate slots per entry (clamped to kMaxDegree). */
    std::uint32_t degree = 4;
    /** Strict storage budget across both levels. */
    std::uint64_t budget_bytes = 256 * 1024;
    /** Fraction of the budget given to the backoff level. */
    double l2_budget_fraction = 0.25;
};

/** One table candidate: a (page, offset) token pair with its vote. */
struct TabularCandidate
{
    std::int32_t page = 0;
    std::int16_t offset = 0;
    std::uint16_t weight = 0;
};

/** Layered L1/L2 context tables with frequency-weighted replacement. */
class TabularTable
{
  public:
    static constexpr std::size_t kMaxDegree = 8;

    /** Which level answered a probe. */
    enum class ProbeLevel : std::uint8_t
    {
        Miss = 0,
        L1 = 1,
        L2 = 2,
    };

    explicit TabularTable(const TabularConfig &cfg);

    /**
     * Record one teacher observation. `page`/`offset` point at the
     * context window, oldest first, `n` tokens long (the newest token
     * is the access the teacher predicted from); `pc` is the newest
     * PC token. Teacher candidates vote rank-weighted into the entry's
     * slots at both levels, admitting/evicting under the byte budget.
     */
    void observe(std::int32_t pc, const std::int32_t *page,
                 const std::int32_t *offset, std::size_t n,
                 const std::vector<TokenPrediction> &teacher);

    /**
     * Probe L1, then (on miss) L2. On a hit, fills `out` with the
     * entry's candidates ranked by weight (ties broken by token
     * value, so ranking never depends on slot order) and returns the
     * answering level; `out` is left empty on a miss.
     */
    ProbeLevel probe(std::int32_t pc, const std::int32_t *page,
                     const std::int32_t *offset, std::size_t n,
                     std::vector<TokenPrediction> &out) const;

    /** Per-entry storage model: key tag (8 B) + frequency (4 B) +
     *  replacement metadata (4 B) + 8 B per candidate slot. */
    std::uint64_t
    entry_bytes() const
    {
        return 16 + 8ull * degree_;
    }

    /** Modeled footprint of the admitted entries (both levels). */
    std::uint64_t storage_bytes() const;

    std::uint64_t budget_bytes() const { return cfg_.budget_bytes; }
    std::size_t l1_entries() const { return l1_.table.size(); }
    std::size_t l2_entries() const { return l2_.table.size(); }
    std::size_t l1_capacity() const { return l1_.max_entries; }
    std::size_t l2_capacity() const { return l2_.max_entries; }
    std::uint64_t observations() const { return observations_; }
    const TabularConfig &config() const { return cfg_; }

    /**
     * Export the closed `distill.table.*` namespace: budget/footprint
     * counters, per-level entry counts and admission/eviction
     * activity. Assigns values, so re-export is idempotent.
     */
    void export_stats(StatRegistry &reg) const;

  private:
    /** One table level: entries + CLOCK ring over admitted keys. */
    struct Entry
    {
        std::array<TabularCandidate, kMaxDegree> cand{};
        std::uint8_t n = 0;
        std::uint32_t freq = 0;
    };

    struct Level
    {
        FlatHashMap<std::uint64_t, Entry> table;
        /** Admitted keys, one slot per live entry; eviction replaces
         *  the victim's slot in place (no reordering). */
        std::vector<std::uint64_t> ring;
        std::size_t clock = 0;
        std::size_t max_entries = 0;
        std::size_t history = 0;
        std::uint64_t admits = 0;
        std::uint64_t evictions = 0;
    };

    /** Context key over the last `history` pairs of the window. */
    std::uint64_t context_key(std::size_t history, std::int32_t pc,
                              const std::int32_t *page,
                              const std::int32_t *offset,
                              std::size_t n) const;

    /** Rank-weighted candidate voting into an entry's slots. */
    void vote(Entry &e,
              const std::vector<TokenPrediction> &teacher) const;

    void observe_level(Level &lvl, std::uint64_t key,
                       const std::vector<TokenPrediction> &teacher);

    TabularConfig cfg_;
    std::uint32_t degree_;  ///< cfg_.degree clamped to kMaxDegree
    Level l1_;
    Level l2_;
    std::uint64_t observations_ = 0;
};

/**
 * The distillation pass: replay the teacher's ranked token
 * predictions (typically VoyagerAdapter::predict_token_candidates at
 * k = cfg.degree + kDecodeOverFetch) over `indices` of `encoded` (each
 * index's context is its trailing `seq_len` window, exactly the
 * windows predict_on builds) and compile them into a TabularTable.
 * `teacher[j]` must be the teacher's ranked candidates for
 * `indices[j]`.
 */
TabularTable
distill_to_table(const EncodedStream &encoded,
                 const std::vector<std::size_t> &indices,
                 const std::vector<std::vector<TokenPrediction>> &teacher,
                 std::size_t seq_len, const TabularConfig &cfg);

}  // namespace voyager::core
