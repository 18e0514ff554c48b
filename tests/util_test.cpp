/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, configuration,
 * strings, tables and address bit helpers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/config.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace voyager {
namespace {

TEST(Types, LineAndPageDecomposition)
{
    const Addr byte = 0x12345678;
    EXPECT_EQ(line_addr(byte), byte >> 6);
    EXPECT_EQ(page_of(byte), byte >> 12);
    EXPECT_EQ(offset_of(byte), (byte >> 6) & 63);
}

TEST(Types, MakeLineRoundTrip)
{
    for (Addr page : {0ull, 1ull, 12345ull, (1ull << 40)}) {
        for (std::uint64_t off : {0ull, 1ull, 31ull, 63ull}) {
            const Addr line = make_line(page, off);
            EXPECT_EQ(page_of_line(line), page);
            EXPECT_EQ(offset_of_line(line), off);
        }
    }
}

TEST(Types, OffsetWrapsAt64)
{
    EXPECT_EQ(make_line(0, 64), make_line(0, 0));
    EXPECT_EQ(make_line(5, 65), make_line(5, 1));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng r(9);
    std::vector<int> seen(5, 0);
    for (int i = 0; i < 1000; ++i)
        ++seen[r.next_below(5)];
    for (int c : seen)
        EXPECT_GT(c, 100);
}

TEST(Rng, NextInInclusiveRange)
{
    Rng r(11);
    for (int i = 0; i < 500; ++i) {
        const auto v = r.next_in(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = r.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(17);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.next_gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(19);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto w = v;
    r.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Zipf, UniformWhenExponentZero)
{
    Rng r(29);
    ZipfSampler z(4, 0.0);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(c, 2000, 300);
}

TEST(Zipf, SkewFavorsSmallIndices)
{
    Rng r(31);
    ZipfSampler z(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[z.sample(r)];
    EXPECT_GT(counts[0], counts[99] * 5);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, BucketsAndOutOfRange)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(10.0);
    h.add(99.0);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[5], 1u);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i);
    EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(FreqCounter, CountsAndTopK)
{
    FreqCounter f;
    f.add(1, 5);
    f.add(2, 3);
    f.add(3, 9);
    f.add(2, 2);
    EXPECT_EQ(f.count(2), 5u);
    EXPECT_EQ(f.count(42), 0u);
    EXPECT_EQ(f.unique(), 3u);
    EXPECT_EQ(f.total(), 19u);
    const auto top = f.top_k(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 3u);
    EXPECT_EQ(top[1].first, 1u);
}

TEST(FreqCounter, TopKTieBreaksByKey)
{
    FreqCounter f;
    f.add(9, 2);
    f.add(4, 2);
    const auto top = f.top_k(2);
    EXPECT_EQ(top[0].first, 4u);
    EXPECT_EQ(top[1].first, 9u);
}

TEST(FreqCounter, TopKTieBreaksBySignedKey)
{
    // Page deltas store negatives as two's-complement uint64. At
    // equal count the tie-break must compare them as signed values:
    // -2 ranks ahead of +5, and a raw unsigned compare would not.
    FreqCounter f;
    f.add(static_cast<std::uint64_t>(std::int64_t{-2}), 3);
    f.add(5, 3);
    f.add(static_cast<std::uint64_t>(std::int64_t{-7}), 3);
    f.add(1, 4);
    const auto top = f.top_k(4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].first, 1u);  // highest count first
    EXPECT_EQ(static_cast<std::int64_t>(top[1].first), -7);
    EXPECT_EQ(static_cast<std::int64_t>(top[2].first), -2);
    EXPECT_EQ(static_cast<std::int64_t>(top[3].first), 5);
}

TEST(Stats, SafeRatioAndPct)
{
    EXPECT_EQ(safe_ratio(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safe_ratio(1.0, 4.0), 0.25);
    EXPECT_EQ(pct(0.416), "41.6%");
    EXPECT_EQ(pct(0.5, 0), "50%");
}

TEST(Config, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta=x", "--flag"};
    const auto cfg = Config::from_args(4, argv);
    EXPECT_EQ(cfg.get_uint("alpha", 0), 3u);
    EXPECT_EQ(cfg.get_string("beta", ""), "x");
    EXPECT_TRUE(cfg.get_bool("flag", false));
    EXPECT_EQ(cfg.get_uint("missing", 42), 42u);
}

TEST(Config, RejectsPositional)
{
    const char *argv[] = {"prog", "oops"};
    EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(Config, TypedGetters)
{
    const char *argv[] = {"prog", "--d=2.5", "--u=18446744073709551615",
                          "--b=yes"};
    const auto c = Config::from_args(4, argv);
    EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 2.5);
    EXPECT_EQ(c.get_uint("u", 0), ~0ull);
    EXPECT_TRUE(c.get_bool("b", false));
    EXPECT_FALSE(c.get_bool("nope", false));
    EXPECT_TRUE(c.get_bool("nope", true));

    // get_bool takes four spellings each way and a bare flag; any
    // other value is rejected like a malformed number.
    for (const char *v : {"1", "true", "yes", "on"}) {
        const std::string flag = std::string("--k=") + v;
        const char *args[] = {"prog", flag.c_str()};
        EXPECT_TRUE(Config::from_args(2, args).get_bool("k", false)) << v;
    }
    for (const char *v : {"0", "false", "no", "off"}) {
        const std::string flag = std::string("--k=") + v;
        const char *args[] = {"prog", flag.c_str()};
        EXPECT_FALSE(Config::from_args(2, args).get_bool("k", true)) << v;
    }
    const char *bare[] = {"prog", "--k"};
    EXPECT_TRUE(Config::from_args(2, bare).get_bool("k", false));
    for (const char *v : {"ture", "", "TRUE", "2", "y", " on"}) {
        const std::string flag = std::string("--k=") + v;
        const char *args[] = {"prog", flag.c_str()};
        const auto cfg = Config::from_args(2, args);
        try {
            cfg.get_bool("k", false);
            ADD_FAILURE() << "no exception for '" << v << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      "--k=" + std::string(v) + ": not a boolean");
        }
    }
}

TEST(Config, NumericGettersRejectMalformedValues)
{
    enum Getter { Uint, Double };
    struct Case
    {
        Getter getter;
        const char *value;
        bool ok;
        double expect;  // when ok
    };
    const Case cases[] = {
        {Uint, "1.5", false, 0},
        {Uint, "", false, 0},
        {Uint, " 3", false, 0},
        {Uint, "+3", false, 0},
        {Uint, "0", true, 0},
        {Uint, "18446744073709551615", true, 18446744073709551615.0},
        {Uint, "-1", false, 0},
        {Uint, "-0", false, 0},
        {Uint, "18446744073709551616", false, 0},
        {Uint, "12abc", false, 0},
        {Uint, "true", false, 0},
        {Double, "2.5", true, 2.5},
        {Double, "-1e-3", true, -1e-3},
        {Double, "2.5x", false, 0},
        {Double, "1e999", false, 0},
        {Double, "", false, 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "getter " << c.getter << " value '" << c.value
                     << "'");
        const std::string flag = std::string("--k=") + c.value;
        const char *argv[] = {"prog", flag.c_str()};
        const auto cfg = Config::from_args(2, argv);
        const auto get = [&]() -> double {
            switch (c.getter) {
            case Uint:
                return static_cast<double>(cfg.get_uint("k", 0));
            case Double:
                return cfg.get_double("k", 0.0);
            }
            return 0.0;
        };
        if (c.ok) {
            EXPECT_EQ(get(), c.expect);
            continue;
        }
        try {
            get();
            ADD_FAILURE() << "no exception";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("--k="), std::string::npos) << what;
            EXPECT_NE(what.find(c.value), std::string::npos) << what;
        }
    }
}

TEST(Strings, SplitTrim)
{
    EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
    EXPECT_EQ(split("a,b", ',')[1], "b");
    EXPECT_EQ(trim("  hi \n"), "hi");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, HumanBytes)
{
    EXPECT_EQ(human_bytes(512), "512 B");
    EXPECT_EQ(human_bytes(1536), "1.5 KiB");
    EXPECT_EQ(human_bytes(3ull << 20), "3.0 MiB");
}

TEST(Strings, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row("beta", {2.5}, 1);
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Crc32, KnownVectors)
{
    // The IEEE 802.3 check value and a couple of boundary cases.
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("a"), 0xe8b7be43u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
              0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data = "incremental checksum input";
    std::uint32_t state = crc32_init();
    for (const char c : data)
        state = crc32_update(state, &c, 1);
    EXPECT_EQ(crc32_final(state), crc32(data));
}

TEST(Crc32, DetectsEverySingleBitFlip)
{
    const std::string data = "checkpoint section payload";
    const std::uint32_t good = crc32(data);
    for (std::size_t i = 0; i < data.size() * 8; ++i) {
        std::string bad = data;
        bad[i / 8] = static_cast<char>(
            static_cast<unsigned char>(bad[i / 8]) ^ (1u << (i % 8)));
        EXPECT_NE(crc32(bad), good) << "flip at bit " << i;
    }
}

TEST(AtomicFile, WritesContentsAndRemovesTemp)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "voyager_atomic_test.bin")
                          .string();
    write_file_atomic(path, "first");
    write_file_atomic(path, "second");  // replace, not append
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_EQ(ss.str(), "second");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

TEST(AtomicFile, UnwritableDirectoryThrows)
{
    EXPECT_THROW(write_file_atomic("/nonexistent/dir/file.bin", "x"),
                 std::runtime_error);
}

}  // namespace
}  // namespace voyager
