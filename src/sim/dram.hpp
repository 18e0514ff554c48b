/**
 * @file
 * DRAM timing model with channels, ranks, banks, open-row buffers and
 * a per-channel data bus, matching the paper's Table 3 configuration
 * (tRP = tRCD = tCAS = 20 CPU cycles, 2 channels, 8 ranks, 8 banks,
 * 32K rows).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stat_registry.hpp"
#include "util/types.hpp"

namespace voyager::sim {

/** DRAM geometry (each dimension a power of two) and timing (in CPU
 *  cycles). */
struct DramConfig
{
    std::uint32_t channels = 2;
    std::uint32_t ranks = 8;
    std::uint32_t banks = 8;
    std::uint32_t rows = 32768;
    /** Cache lines per row buffer (2 KiB row / 64 B line). */
    std::uint32_t columns = 32;
    std::uint32_t t_rp = 20;    ///< precharge
    std::uint32_t t_rcd = 20;   ///< activate
    std::uint32_t t_cas = 20;   ///< column access
    /** Cycles a 64 B burst occupies the channel data bus. */
    std::uint32_t burst_cycles = 4;
};

/** DRAM counters. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t total_latency = 0;

    double
    row_hit_rate() const
    {
        return requests ? static_cast<double>(row_hits) /
                              static_cast<double>(requests)
                        : 0.0;
    }
    double
    avg_latency() const
    {
        return requests ? static_cast<double>(total_latency) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** Export DRAM counters into `reg` under `<prefix>.`. */
void export_dram_stats(StatRegistry &reg, const std::string &prefix,
                       const DramStats &s);

/**
 * Open-page DRAM model. Each request is mapped to a (channel, rank,
 * bank, row); the latency accounts for bank busy time, row-buffer
 * hit/miss, and contention for the channel data bus.
 */
class Dram
{
  public:
    /** @throws std::invalid_argument naming the field when channels,
     *  ranks, banks, rows or columns is not a power of two (or is 0). */
    explicit Dram(const DramConfig &cfg);

    /**
     * Issue a line fill at time `now`.
     * @return total latency in cycles until the data returns.
     */
    std::uint32_t access(Addr line, Cycle now);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return cfg_; }

  private:
    struct Bank
    {
        Cycle busy_until = 0;
        std::uint32_t open_row = ~0u;
    };

    /** Channel, flat bank index and row of a line. */
    struct Location
    {
        std::uint32_t channel;
        std::size_t bank;
        std::uint32_t row;
    };
    Location locate(Addr line) const;

    DramConfig cfg_;
    std::uint32_t skip_bits_;   ///< log2(channels) + log2(columns)
    std::uint32_t bank_bits_;   ///< log2(banks)
    std::uint32_t rank_bits_;   ///< log2(ranks)
    std::vector<Bank> banks_;        // channels * ranks * banks
    std::vector<Cycle> bus_free_;    // per channel
    DramStats stats_;
};

}  // namespace voyager::sim
