/**
 * @file
 * BO (Best-Offset prefetcher, Michaud, HPCA 2016): a spatial
 * prefetcher that continuously scores a fixed list of candidate
 * offsets against a recent-requests table and prefetches X + D with
 * the current best offset D (paper Eq. 5/6 family).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/flat_hash.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Best-Offset prefetcher. */
class BestOffset final : public Prefetcher
{
  public:
    /** @param degree prefetches per trigger, X + D up to X + degree*D,
     *         cut at the trigger's 4 KiB page */
    explicit BestOffset(std::uint32_t degree = 1);

    std::string name() const override { return "bo"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;
    void export_stats(StatRegistry &reg,
                      const std::string &prefix) const override;

    /** Currently adopted offset (0 = prefetching off). */
    int current_offset() const { return best_offset_; }

    /** The classic 52-entry offset list (factors 2,3,5 up to 256). */
    static const std::vector<int> &offset_list();

  private:
    /** Recent-requests table capacity. */
    static constexpr std::size_t kRrSize = 256;
    /** Score needed for an offset to be adopted. */
    static constexpr int kScoreThreshold = 20;
    /** Saturation score: adopt immediately when reached. */
    static constexpr int kMaxScore = 31;
    /** Learning rounds per phase (each round tests every offset once). */
    static constexpr int kMaxRounds = 100;

    void rr_insert(Addr line);
    void finish_phase();

    std::uint32_t degree_;
    /** RR table in insertion order: a ring of up to kRrSize lines,
     *  rr_head_ the oldest once full. */
    std::vector<Addr> rr_ring_;
    std::size_t rr_head_ = 0;
    FlatHashSet<Addr> rr_set_;   ///< the lines in rr_ring_

    std::vector<int> scores_;
    std::size_t test_cursor_ = 0;   ///< next offset index to test
    int round_ = 0;
    int best_offset_ = 0;           ///< adopted offset, 0 = off
};

}  // namespace voyager::prefetch
