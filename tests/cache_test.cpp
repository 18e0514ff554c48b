/**
 * @file
 * Unit tests for the set-associative cache model: geometry, LRU
 * replacement, prefetch-bit accounting.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "util/random.hpp"

namespace voyager::sim {
namespace {

CacheConfig
tiny(std::uint32_t assoc = 2, std::uint64_t sets = 4)
{
    CacheConfig c;
    c.name = "tiny";
    c.assoc = assoc;
    c.size_bytes = kLineSize * assoc * sets;
    c.latency = 1;
    return c;
}

/** Line that maps to `set` in a cache with `sets` sets. */
Addr
line_in_set(std::uint64_t set, std::uint64_t tag, std::uint64_t sets = 4)
{
    return set + tag * sets;
}

TEST(Cache, GeometryValidation)
{
    CacheConfig c;
    c.size_bytes = 100;  // not a multiple of line*assoc
    c.assoc = 3;
    EXPECT_THROW(Cache cache(c), std::invalid_argument);
    CacheConfig zero = tiny();
    zero.assoc = 0;
    EXPECT_THROW(Cache cache(zero), std::invalid_argument);
    CacheConfig no_sets = tiny();
    no_sets.size_bytes = 0;
    EXPECT_THROW(Cache cache(no_sets), std::invalid_argument);
}

TEST(Cache, SetCountMustBeAPowerOfTwo)
{
    for (std::uint64_t sets : {3u, 6u, 12u, 2047u}) {
        try {
            Cache c(tiny(4, sets));
            ADD_FAILURE() << sets << " sets were accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("power of two"),
                      std::string::npos)
                << e.what();
        }
    }
    for (std::uint64_t sets : {1u, 2u, 64u, 2048u})
        EXPECT_NO_THROW(Cache c(tiny(4, sets)));
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(42));
    c.fill(42, false);
    EXPECT_TRUE(c.access(42));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny(2, 4));
    const Addr a = line_in_set(0, 1);
    const Addr b = line_in_set(0, 2);
    const Addr d = line_in_set(0, 3);
    c.fill(a, false);
    c.fill(b, false);
    c.access(a);  // a is now MRU
    const Addr evicted = c.fill(d, false);
    EXPECT_EQ(evicted, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, FillPrefersEmptyWay)
{
    Cache c(tiny(4, 1));
    EXPECT_EQ(c.fill(line_in_set(0, 1, 1), false), Cache::kNoEviction);
    EXPECT_EQ(c.fill(line_in_set(0, 2, 1), false), Cache::kNoEviction);
    EXPECT_EQ(c.fill(line_in_set(0, 3, 1), false), Cache::kNoEviction);
    EXPECT_EQ(c.fill(line_in_set(0, 4, 1), false), Cache::kNoEviction);
    EXPECT_NE(c.fill(line_in_set(0, 5, 1), false), Cache::kNoEviction);
}

TEST(Cache, DuplicateFillDoesNotEvict)
{
    Cache c(tiny(2, 4));
    c.fill(7, false);
    EXPECT_EQ(c.fill(7, true), Cache::kNoEviction);
    EXPECT_EQ(c.stats().prefetch_fills, 0u);
}

TEST(Cache, PrefetchHitCountsUsefulOnce)
{
    Cache c(tiny());
    c.fill(10, true);
    EXPECT_EQ(c.stats().prefetch_fills, 1u);
    EXPECT_TRUE(c.access(10));
    EXPECT_EQ(c.stats().useful_prefetches, 1u);
    EXPECT_TRUE(c.access(10));  // second hit: bit already consumed
    EXPECT_EQ(c.stats().useful_prefetches, 1u);
}

TEST(Cache, EvictedUnusedPrefetchCounted)
{
    Cache c(tiny(1, 4));  // direct-mapped, 4 sets
    c.fill(line_in_set(2, 1), true);
    c.fill(line_in_set(2, 2), false);  // evicts the unused prefetch
    EXPECT_EQ(c.stats().evicted_unused_prefetches, 1u);
}

TEST(Cache, ContainsDoesNotTouchStats)
{
    Cache c(tiny());
    c.fill(1, false);
    (void)c.contains(1);
    (void)c.contains(2);
    EXPECT_EQ(c.stats().accesses, 0u);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint64_t>>
{
};

TEST_P(CacheGeometry, WorkingSetLargerThanCacheThrashes)
{
    const auto [assoc, sets] = GetParam();
    CacheConfig cfg;
    cfg.assoc = assoc;
    cfg.size_bytes = kLineSize * assoc * sets;
    Cache c(cfg);
    const std::uint64_t capacity = assoc * sets;
    // Cyclic sweep over 2x capacity with LRU: every access misses.
    for (int round = 0; round < 3; ++round) {
        for (Addr line = 0; line < 2 * capacity; ++line) {
            if (!c.access(line))
                c.fill(line, false);
        }
    }
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST_P(CacheGeometry, WorkingSetWithinCacheAllHitsAfterWarmup)
{
    const auto [assoc, sets] = GetParam();
    CacheConfig cfg;
    cfg.assoc = assoc;
    cfg.size_bytes = kLineSize * assoc * sets;
    Cache c(cfg);
    const std::uint64_t capacity = assoc * sets;
    for (Addr line = 0; line < capacity; ++line)
        c.fill(line, false);
    for (int round = 0; round < 2; ++round)
        for (Addr line = 0; line < capacity; ++line)
            EXPECT_TRUE(c.access(line));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<std::uint32_t, std::uint64_t>{1, 16},
                      std::pair<std::uint32_t, std::uint64_t>{2, 8},
                      std::pair<std::uint32_t, std::uint64_t>{4, 4},
                      std::pair<std::uint32_t, std::uint64_t>{16, 32}));

/**
 * The cache as an array of block structs, indexed by `line % sets`,
 * with a valid flag and an explicit empty-way scan before the LRU
 * search: the layout Cache had before its per-way arrays.
 * The differential tests hold Cache to it operation for operation.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.num_sets()), blocks_(sets_ * cfg.assoc)
    {
    }

    const CacheStats &stats() const { return stats_; }

    bool
    access(Addr line)
    {
        ++stats_.accesses;
        Block *set = set_of(line);
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Block &b = set[w];
            if (b.valid && b.line == line) {
                ++stats_.hits;
                b.lru = ++lru_clock_;
                if (b.prefetched) {
                    b.prefetched = false;
                    ++stats_.useful_prefetches;
                }
                return true;
            }
        }
        ++stats_.misses;
        return false;
    }

    Addr
    fill(Addr line, bool prefetched)
    {
        Block *set = set_of(line);
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].valid && set[w].line == line) {
                set[w].lru = ++lru_clock_;
                return Cache::kNoEviction;
            }
        }
        Block *victim = pick_victim(set);
        Addr evicted = Cache::kNoEviction;
        if (victim->valid) {
            evicted = victim->line;
            if (victim->prefetched)
                ++stats_.evicted_unused_prefetches;
        }
        victim->valid = true;
        victim->line = line;
        victim->prefetched = prefetched;
        victim->lru = ++lru_clock_;
        if (prefetched)
            ++stats_.prefetch_fills;
        return evicted;
    }

    bool
    contains(Addr line)
    {
        const Block *set = set_of(line);
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
            if (set[w].valid && set[w].line == line)
                return true;
        return false;
    }

  private:
    struct Block
    {
        Addr line = 0;
        bool valid = false;
        bool prefetched = false;
        std::uint64_t lru = 0;
    };

    Block *set_of(Addr line)
    {
        return &blocks_[(line % sets_) * cfg_.assoc];
    }

    Block *
    pick_victim(Block *set)
    {
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
            if (!set[w].valid)
                return &set[w];
        Block *victim = set;
        for (std::uint32_t w = 1; w < cfg_.assoc; ++w)
            if (set[w].lru < victim->lru)
                victim = &set[w];
        return victim;
    }

    CacheConfig cfg_;
    std::uint64_t sets_;
    std::vector<Block> blocks_;
    std::uint64_t lru_clock_ = 0;
    CacheStats stats_;
};

void
expect_same_stats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.prefetch_fills, b.prefetch_fills);
    EXPECT_EQ(a.useful_prefetches, b.useful_prefetches);
    EXPECT_EQ(a.evicted_unused_prefetches, b.evicted_unused_prefetches);
}

class CacheDifferential
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint64_t>>
{
};

TEST_P(CacheDifferential, MatchesBlockArrayReference)
{
    const auto [assoc, sets] = GetParam();
    const CacheConfig cfg = tiny(assoc, sets);
    Cache c(cfg);
    RefCache ref(cfg);
    const std::uint64_t capacity = std::uint64_t{assoc} * sets;
    // Lines from 3x the capacity: cold fills, hits and conflict misses
    // all occur. A hot tenth of the range keeps LRU state from
    // degenerating into pure streaming.
    const std::uint64_t range = 3 * capacity;
    Rng rng(capacity * 7);
    const std::size_t ops = std::max<std::size_t>(20000, 6 * capacity);
    for (std::size_t i = 0; i < ops; ++i) {
        const Addr line = rng.next_below(4) == 0
                              ? rng.next_below(range / 10 + 1)
                              : rng.next_below(range);
        const std::uint64_t op = rng.next_below(20);
        if (op < 7) {
            ASSERT_EQ(c.access(line), ref.access(line)) << "op " << i;
        } else if (op < 10) {
            ASSERT_EQ(c.fill(line, false), ref.fill(line, false))
                << "op " << i;
        } else if (op < 13) {
            ASSERT_EQ(c.fill(line, true), ref.fill(line, true))
                << "op " << i;
        } else if (op < 16) {
            const bool hit = ref.access(line);
            if (!hit)
                ref.fill(line, false);
            ASSERT_EQ(c.access_or_fill(line), hit) << "op " << i;
        } else {
            ASSERT_EQ(c.contains(line), ref.contains(line)) << "op " << i;
        }
    }
    expect_same_stats(c.stats(), ref.stats());
    for (Addr line = 0; line < range; ++line)
        ASSERT_EQ(c.contains(line), ref.contains(line)) << line;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(std::pair<std::uint32_t, std::uint64_t>{1, 16},
                      std::pair<std::uint32_t, std::uint64_t>{2, 8},
                      std::pair<std::uint32_t, std::uint64_t>{4, 4},
                      std::pair<std::uint32_t, std::uint64_t>{16, 32},
                      std::pair<std::uint32_t, std::uint64_t>{16, 2048}));

}  // namespace
}  // namespace voyager::sim
