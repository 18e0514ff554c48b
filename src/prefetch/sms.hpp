/**
 * @file
 * SMS (Spatial Memory Streaming, Somogyi et al., ISCA 2006): learns
 * recurring spatial footprints within page-sized regions and replays
 * them on the next trigger access to a region with the same signature
 * (paper §2.1: "learns recurring spatial footprints within page-sized
 * regions and applies old spatial patterns to new unseen regions").
 * Included as an additional spatial baseline beyond BO.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/prefetcher.hpp"

namespace voyager::prefetch {

using sim::Prefetcher;
using voyager::Addr;

/** Idealized SMS. */
class Sms final : public Prefetcher
{
  public:
    /** @param degree most footprint lines replayed per trigger */
    explicit Sms(std::uint32_t degree = 8) : degree_(degree) {}

    std::string name() const override { return "sms"; }
    std::vector<Addr> on_access(const sim::LlcAccess &access) override;
    std::uint64_t storage_bytes() const override;

    std::size_t patterns_learned() const { return pht_.size(); }

  private:
    /** log2 lines per region (6 = 64 lines = one 4 KiB page). */
    static constexpr int kRegionShift = 6;
    /** A generation ends after this many accesses without touching
     *  the region (interval-based generation close). */
    static constexpr std::uint64_t kGenerationTimeout = 256;
    /** Generations tracked before stale ones are closed. */
    static constexpr std::size_t kMaxActive = 64;

    /** Signature: trigger PC + trigger offset within the region. */
    static std::uint64_t
    signature(Addr pc, std::uint32_t offset)
    {
        return pc * 131 + offset;
    }

    struct Generation
    {
        std::uint64_t sig = 0;
        std::uint64_t footprint = 0;     ///< bitmap of touched lines
        std::uint64_t last_access = 0;   ///< global access counter
    };

    void close_generation(Addr region, const Generation &gen);

    std::uint32_t degree_;
    std::uint64_t access_counter_ = 0;
    std::unordered_map<Addr, Generation> active_;        ///< by region
    std::unordered_map<std::uint64_t, std::uint64_t> pht_;  ///< sig->bits
};

}  // namespace voyager::prefetch
