#include "sim/dram.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace voyager::sim {

namespace {

/** `v`, or std::invalid_argument naming `field` unless it is a power
 *  of two (which excludes 0). */
std::uint32_t
checked_dim(std::uint32_t v, const char *field)
{
    if (v == 0)
        throw std::invalid_argument(std::string("dram: ") + field +
                                    " must be positive");
    if (!std::has_single_bit(v))
        throw std::invalid_argument(std::string("dram: ") + field + " = " +
                                    std::to_string(v) +
                                    " is not a power of two");
    return v;
}

std::uint32_t
log2_dim(std::uint32_t v, const char *field)
{
    return static_cast<std::uint32_t>(std::countr_zero(checked_dim(v, field)));
}

}  // namespace

Dram::Dram(const DramConfig &cfg)
    : cfg_(cfg),
      skip_bits_(log2_dim(cfg.channels, "channels") +
                 log2_dim(cfg.columns, "columns")),
      bank_bits_(log2_dim(cfg.banks, "banks")),
      rank_bits_(log2_dim(cfg.ranks, "ranks")),
      banks_(static_cast<std::size_t>(cfg.channels) * cfg.ranks *
             cfg.banks),
      bus_free_(cfg.channels, 0)
{
    checked_dim(cfg.rows, "rows");
}

Dram::Location
Dram::locate(Addr line) const
{
    // Address mapping row:rank:bank:column:channel — adjacent lines
    // spread across channels, then walk a row's columns, so spatial
    // streams enjoy row-buffer hits while banks still interleave.
    // Every dimension is a power of two, so x % 2^k is x & (2^k - 1)
    // and x / 2^k is x >> k.
    const auto channel =
        static_cast<std::uint32_t>(line & (cfg_.channels - 1));
    std::uint64_t rest = line >> skip_bits_;  // drop channel and column
    const auto bank = static_cast<std::uint32_t>(rest & (cfg_.banks - 1));
    rest >>= bank_bits_;
    const auto rank = static_cast<std::uint32_t>(rest & (cfg_.ranks - 1));
    rest >>= rank_bits_;
    const auto row = static_cast<std::uint32_t>(rest & (cfg_.rows - 1));
    return {channel,
            (static_cast<std::size_t>(channel) * cfg_.ranks + rank) *
                    cfg_.banks + bank,
            row};
}

std::uint32_t
Dram::access(Addr line, Cycle now)
{
    const Location loc = locate(line);
    Bank &b = banks_[loc.bank];

    const Cycle start = std::max(now, b.busy_until);
    std::uint32_t prep_cycles = 0;
    if (b.open_row == loc.row) {
        ++stats_.row_hits;
    } else {
        ++stats_.row_misses;
        prep_cycles = cfg_.t_rp + cfg_.t_rcd;
        b.open_row = loc.row;
    }
    Cycle data_ready = start + prep_cycles + cfg_.t_cas;
    // Serialize the burst on the channel data bus.
    Cycle &bus = bus_free_[loc.channel];
    const Cycle burst_start = std::max(data_ready, bus);
    bus = burst_start + cfg_.burst_cycles;
    data_ready = burst_start + cfg_.burst_cycles;
    // Column accesses pipeline: the bank is busy for the activation
    // plus one burst slot, not the full CAS latency, so row-hit
    // streams drain at burst rate.
    b.busy_until = start + prep_cycles + cfg_.burst_cycles;

    ++stats_.requests;
    const auto latency = static_cast<std::uint32_t>(data_ready - now);
    stats_.total_latency += latency;
    return latency;
}

void
export_dram_stats(StatRegistry &reg, const std::string &prefix,
                  const DramStats &s)
{
    reg.counter(prefix + ".requests") = s.requests;
    reg.counter(prefix + ".row_hits") = s.row_hits;
    reg.counter(prefix + ".row_misses") = s.row_misses;
    reg.counter(prefix + ".total_latency") = s.total_latency;
    reg.gauge(prefix + ".row_hit_rate") = s.row_hit_rate();
    reg.gauge(prefix + ".avg_latency") = s.avg_latency();
}

}  // namespace voyager::sim
