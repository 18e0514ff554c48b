/**
 * @file
 * ISB (Irregular Stream Buffer, Jain & Lin, MICRO 2013): PC-localized
 * temporal prefetching through a structural address space. Consecutive
 * addresses in a PC-localized stream are mapped to consecutive
 * *structural* addresses; prediction walks the structural space, which
 * linearizes irregular streams (paper Eq. 3). Idealized: unbounded
 * physical<->structural mappings, zero-latency lookup.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/prefetcher.hpp"
#include "util/flat_hash.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Idealized ISB. */
class Isb final : public Prefetcher
{
  public:
    /**
     * @param degree prefetches per trigger
     * @param stream_chunk structural addresses reserved per new stream
     */
    explicit Isb(std::uint32_t degree = 1, std::uint32_t stream_chunk = 256);

    std::string name() const override { return "isb"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;
    void export_stats(StatRegistry &reg,
                      const std::string &prefix) const override;

    /** Number of allocated structural streams (for tests/diagnostics). */
    std::uint64_t num_streams() const { return next_stream_base_ / chunk_; }

    /**
     * Actual bytes held by the flat metadata tables, as opposed to
     * the idealized per-entry model of storage_bytes() (which feeds
     * the golden-pinned Fig. 5/17 accounting and must not drift).
     */
    std::uint64_t
    table_bytes() const
    {
        return last_by_pc_.storage_bytes() +
               phys_to_struct_.storage_bytes() +
               struct_to_phys_.storage_bytes();
    }

  private:
    /**
     * Map `line` to structural address s. Both must be unmapped:
     * training maps only lines without a home, and every structural
     * address it hands out is either the fresh base of a new stream
     * or a slot it found free.
     */
    void map_structural(Addr line, std::uint64_t s);

    std::uint32_t degree_;
    std::uint32_t chunk_;
    std::uint64_t next_stream_base_ = 0;

    FlatHashMap<Addr, Addr> last_by_pc_;          ///< training units
    FlatHashMap<Addr, std::uint64_t> phys_to_struct_;
    FlatHashMap<std::uint64_t, Addr> struct_to_phys_;
};

}  // namespace voyager::prefetch
