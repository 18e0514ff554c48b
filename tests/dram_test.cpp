/**
 * @file
 * Tests for the DRAM timing model: row-buffer behaviour, bank
 * serialization and bus occupancy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/dram.hpp"
#include "util/random.hpp"

namespace voyager::sim {
namespace {

DramConfig
cfg()
{
    DramConfig c;
    c.channels = 2;
    c.ranks = 2;
    c.banks = 4;
    c.rows = 64;
    c.columns = 4;
    c.t_rp = 20;
    c.t_rcd = 20;
    c.t_cas = 20;
    c.burst_cycles = 4;
    return c;
}

TEST(Dram, FirstAccessIsRowMiss)
{
    Dram d(cfg());
    const auto lat = d.access(0, 0);
    EXPECT_EQ(lat, 20u + 20u + 20u + 4u);
    EXPECT_EQ(d.stats().row_misses, 1u);
}

TEST(Dram, SameRowLaterIsRowHit)
{
    Dram d(cfg());
    d.access(0, 0);
    // Same (channel, bank, rank, row) long after the bank freed up.
    const auto lat = d.access(0, 1000);
    EXPECT_EQ(lat, 20u + 4u);
    EXPECT_EQ(d.stats().row_hits, 1u);
}

TEST(Dram, DifferentRowSameBankMissesAgain)
{
    const auto c = cfg();
    Dram d(c);
    d.access(0, 0);
    // Stride one full row group on the same bank: channel, column and
    // bank bits identical, row bits differ.
    const Addr same_bank_other_row = static_cast<Addr>(c.channels) *
                                     c.columns * c.banks * c.ranks;
    d.access(same_bank_other_row, 1000);
    EXPECT_EQ(d.stats().row_misses, 2u);
}

TEST(Dram, BankConflictQueues)
{
    Dram d(cfg());
    const auto lat1 = d.access(0, 0);
    // Immediate second request to the same bank waits for the first.
    const auto lat2 = d.access(0, 0);
    EXPECT_GT(lat2, lat1);
}

TEST(Dram, IndependentBanksOverlap)
{
    const auto c = cfg();
    Dram d(c);
    d.access(0, 0);
    // Different channel entirely: no bank or bus conflict.
    const auto lat = d.access(1, 0);
    EXPECT_EQ(lat, 20u + 20u + 20u + 4u);
}

TEST(Dram, SequentialLinesSpreadAcrossChannels)
{
    const auto c = cfg();
    Dram d(c);
    const auto l0 = d.access(0, 0);
    const auto l1 = d.access(1, 0);  // next line -> other channel
    EXPECT_EQ(l0, l1);
}

TEST(Dram, StatsAccumulateLatency)
{
    Dram d(cfg());
    d.access(0, 0);
    d.access(2, 0);
    EXPECT_EQ(d.stats().requests, 2u);
    EXPECT_GT(d.stats().avg_latency(), 0.0);
    EXPECT_LE(d.stats().row_hit_rate(), 1.0);
}

TEST(Dram, StreamingEnjoysRowHits)
{
    Dram d(cfg());
    Cycle now = 0;
    // A long unit-stride sweep: after the first touch of each bank's
    // row, subsequent accesses to that row hit.
    for (Addr line = 0; line < 64; ++line) {
        d.access(line, now);
        now += 100;
    }
    EXPECT_GT(d.stats().row_hit_rate(), 0.5);
}

constexpr std::pair<const char *, std::uint32_t DramConfig::*>
    kGeometry[] = {
        {"channels", &DramConfig::channels}, {"ranks", &DramConfig::ranks},
        {"banks", &DramConfig::banks},       {"rows", &DramConfig::rows},
        {"columns", &DramConfig::columns},
};

/** Expect Dram(cfg() with each geometry field set to `v`) to throw
 *  std::invalid_argument naming that field. */
void
expect_rejected(std::uint32_t v)
{
    for (const auto &[name, field] : kGeometry) {
        DramConfig c = cfg();
        c.*field = v;
        try {
            Dram d(c);
            ADD_FAILURE() << name << " = " << v << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }
}

TEST(Dram, ZeroGeometryThrowsNamingTheField) { expect_rejected(0); }

TEST(Dram, NonPowerOfTwoGeometryThrowsNamingTheField)
{
    expect_rejected(3);
    expect_rejected(1000);
}

/**
 * The address mapping and timing written with division and modulo, as
 * Dram computed them before the mapping moved to shifts and masks.
 */
class RefDram
{
  public:
    explicit RefDram(const DramConfig &c)
        : cfg_(c), banks_(std::size_t{c.channels} * c.ranks * c.banks),
          bus_free_(c.channels, 0)
    {
    }

    std::uint32_t
    access(Addr line, Cycle now)
    {
        const std::uint32_t channel = line % cfg_.channels;
        std::uint64_t rest = line / cfg_.channels;
        rest /= cfg_.columns;
        const std::uint32_t bank = rest % cfg_.banks;
        rest /= cfg_.banks;
        const std::uint32_t rank = rest % cfg_.ranks;
        rest /= cfg_.ranks;
        const std::uint32_t row = rest % cfg_.rows;
        Bank &b = banks_[(std::size_t{channel} * cfg_.ranks + rank) *
                             cfg_.banks + bank];
        const Cycle start = std::max(now, b.busy_until);
        std::uint32_t prep = 0;
        if (b.open_row == row) {
            ++stats.row_hits;
        } else {
            ++stats.row_misses;
            prep = cfg_.t_rp + cfg_.t_rcd;
            b.open_row = row;
        }
        Cycle &bus = bus_free_[channel];
        const Cycle burst_start =
            std::max<Cycle>(start + prep + cfg_.t_cas, bus);
        bus = burst_start + cfg_.burst_cycles;
        b.busy_until = start + prep + cfg_.burst_cycles;
        ++stats.requests;
        const auto latency =
            static_cast<std::uint32_t>(burst_start + cfg_.burst_cycles - now);
        stats.total_latency += latency;
        return latency;
    }

    DramStats stats;

  private:
    struct Bank
    {
        Cycle busy_until = 0;
        std::uint32_t open_row = ~0u;
    };
    DramConfig cfg_;
    std::vector<Bank> banks_;
    std::vector<Cycle> bus_free_;
};

TEST(Dram, MatchesDivisionMapping)
{
    DramConfig narrow = cfg();
    narrow.channels = 1;
    narrow.ranks = 1;
    narrow.banks = 1;
    narrow.rows = 1;
    narrow.columns = 1;
    DramConfig wide = DramConfig{};
    wide.channels = 4;
    wide.ranks = 2;
    wide.banks = 16;
    wide.rows = 1024;
    wide.columns = 128;
    for (const DramConfig &c : {cfg(), DramConfig{}, narrow, wide}) {
        Dram d(c);
        RefDram ref(c);
        Rng rng(c.channels * 131 + c.rows);
        Cycle now = 0;
        for (int i = 0; i < 20000; ++i) {
            // Mostly nearby lines (row hits, bank conflicts), some far.
            const Addr line = rng.next_below(4) == 0
                                  ? rng.next_below(Addr{1} << 40)
                                  : rng.next_below(4096);
            ASSERT_EQ(d.access(line, now), ref.access(line, now))
                << "request " << i << " line " << line;
            now += rng.next_below(40);
        }
        EXPECT_EQ(d.stats().requests, ref.stats.requests);
        EXPECT_EQ(d.stats().row_hits, ref.stats.row_hits);
        EXPECT_EQ(d.stats().row_misses, ref.stats.row_misses);
        EXPECT_EQ(d.stats().total_latency, ref.stats.total_latency);
    }
}

}  // namespace
}  // namespace voyager::sim
