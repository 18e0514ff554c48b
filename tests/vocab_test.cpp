/**
 * @file
 * Tests for the hierarchical vocabulary: page/offset decomposition,
 * delta tokens for infrequent addresses, OOV handling, decode
 * round-trips.
 */
#include <gtest/gtest.h>

#include "core/vocab.hpp"
#include "util/random.hpp"

namespace voyager::core {
namespace {

LlcAccess
acc(Addr pc, Addr line)
{
    LlcAccess a;
    a.pc = pc;
    a.line = line;
    a.is_load = true;
    return a;
}

std::vector<LlcAccess>
repeated_stream()
{
    // Lines 0x100, 0x101, 0x5000 appear repeatedly (frequent); line
    // 0x9990 appears once (infrequent -> delta representation).
    std::vector<LlcAccess> s;
    for (int rep = 0; rep < 3; ++rep) {
        s.push_back(acc(1, 0x100));
        s.push_back(acc(1, 0x101));
        s.push_back(acc(2, 0x5000));
    }
    s.push_back(acc(2, 0x5000));
    s.push_back(acc(3, 0x9990));  // infrequent, delta from 0x5000
    return s;
}

TEST(Vocab, SizesCountTokens)
{
    const auto v = Vocabulary::build(repeated_stream());
    EXPECT_EQ(v.num_pc_tokens(), 4);  // OOV + 3 PCs
    // Frequent lines live on pages 0x100>>6=4 and 0x5000>>6=320:
    // 2 real pages + OOV + page-delta tokens.
    EXPECT_EQ(v.num_real_pages(), 2u);
    EXPECT_GE(v.num_page_delta_tokens(), 1u);
    EXPECT_EQ(v.num_offset_tokens(), 64 + 127);
}

TEST(Vocab, EncodeFrequentLineIsAbsolute)
{
    const auto v = Vocabulary::build(repeated_stream());
    const Token t = v.encode(1, 0x100, std::nullopt);
    EXPECT_FALSE(t.is_delta);
    EXPECT_GT(t.page, 0);
    EXPECT_EQ(t.offset, static_cast<std::int32_t>(0x100 & 63));
    EXPECT_GT(t.pc, 0);
}

TEST(Vocab, EncodeDecodeRoundTripAbsolute)
{
    const auto v = Vocabulary::build(repeated_stream());
    const Token t = v.encode(1, 0x101, 0x100);
    const auto line = v.decode(t.page, t.offset, /*prev=*/0x100);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, 0x101u);
}

TEST(Vocab, InfrequentLineUsesDeltaTokens)
{
    const auto v = Vocabulary::build(repeated_stream());
    const Token t = v.encode(3, 0x9990, 0x5000);
    EXPECT_TRUE(t.is_delta);
    EXPECT_TRUE(v.is_delta_page_token(t.page));
    EXPECT_GE(t.offset, 64);
    // Round trip through the delta representation.
    const auto line = v.decode(t.page, t.offset, 0x5000);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, 0x9990u);
}

TEST(Vocab, UnknownPcAndPageAreOov)
{
    const auto v = Vocabulary::build(repeated_stream());
    const Token t = v.encode(999, 0xffff'0000, std::nullopt);
    EXPECT_EQ(t.pc, Vocabulary::kOovPc);
    EXPECT_EQ(t.page, Vocabulary::kOovPage);
}

TEST(Vocab, DecodeRejectsOovAndOutOfRange)
{
    const auto v = Vocabulary::build(repeated_stream());
    EXPECT_FALSE(v.decode(Vocabulary::kOovPage, 5, 0x100).has_value());
    EXPECT_FALSE(v.decode(9999, 5, 0x100).has_value());
}

TEST(Vocab, DecodeRejectsOffsetDeltaLeavingPage)
{
    const auto v = Vocabulary::build(repeated_stream());
    // Offset delta +63 from an offset of 32 leaves the page.
    const std::int32_t big_delta_token = 64 + (63 + 63);
    const Addr prev = make_line(4, 32);
    EXPECT_FALSE(v.decode(1, big_delta_token, prev).has_value());
}

TEST(Vocab, DisablingDeltasKeepsEverythingAbsolute)
{
    VocabConfig cfg;
    cfg.use_deltas = false;
    const auto v = Vocabulary::build(repeated_stream(), cfg);
    EXPECT_EQ(v.num_page_delta_tokens(), 0u);
    const Token t = v.encode(3, 0x9990, 0x5000);
    EXPECT_FALSE(t.is_delta);
    EXPECT_GT(t.page, 0);  // 0x9990's page becomes a real page token
}

TEST(Vocab, MaxPageDeltasHonored)
{
    // A stream of unique lines with many distinct page deltas.
    std::vector<LlcAccess> s;
    Addr line = 0;
    for (int i = 0; i < 200; ++i) {
        line += static_cast<Addr>(64 + i * 64);  // growing page deltas
        s.push_back(acc(1, line));
    }
    const auto v = Vocabulary::build(s);
    EXPECT_EQ(v.num_page_delta_tokens(), kMaxPageDeltas);
}

TEST(Vocab, EncodedStreamAlignsWithInput)
{
    const auto stream = repeated_stream();
    const auto v = Vocabulary::build(stream);
    const auto es = encode_stream(stream, v);
    ASSERT_EQ(es.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(es.line[i], stream[i].line);
        EXPECT_EQ(es.is_load[i], 1);
        EXPECT_GE(es.page[i], 0);
        EXPECT_LT(es.page[i], v.num_page_tokens());
        EXPECT_GE(es.offset[i], 0);
        EXPECT_LT(es.offset[i], v.num_offset_tokens());
    }
}

TEST(Vocab, AdmittedDeltaOrderIsPinned)
{
    // The delta token ids come from FreqCounter::top_k, whose order
    // at equal counts is pinned by the signed-key tie-break — so a
    // vocabulary built from a stream with tied delta frequencies
    // must admit deltas most-frequent-first, negatives before larger
    // positives at equal count. (Token ids feed the golden stats:
    // this order must never drift with the container's iteration
    // order.)
    std::vector<LlcAccess> s;
    // Frequent anchor so every infrequent access deltas against the
    // same page.
    const Addr anchor = make_line(100, 0);
    for (int i = 0; i < 8; ++i)
        s.push_back(acc(1, anchor));
    // Page delta +3 twice, deltas -2 and +5 once each (tied); the
    // offsets are unique so every hop line stays infrequent.
    const std::int64_t hops[] = {3, -2, 3, 5};
    std::uint64_t off = 1;
    for (const std::int64_t dp : hops) {
        s.push_back(acc(2, make_line(static_cast<Addr>(100 + dp),
                                     off++)));
        s.push_back(acc(1, anchor));
    }
    const auto v = Vocabulary::build(s);
    const auto &deltas = v.page_deltas();
    ASSERT_GE(deltas.size(), 3u);
    EXPECT_EQ(deltas[0], 3);   // count 2
    EXPECT_EQ(deltas[1], -2);  // count 1, signed tie-break
    EXPECT_EQ(deltas[2], 5);   // count 1
}

TEST(Vocab, FuzzEncodeDecodeRoundTrip)
{
    // Randomized walk mixing frequent lines (drawn from a small
    // pool), infrequent one-offs with page-boundary offsets (0 and
    // 63, driving the offset delta to its ±63 extremes), and large
    // page hops whose deltas fall out of the admitted set (OOV).
    // Every decodable token must round-trip to the encoded line.
    Rng rng(2024);
    std::vector<Addr> pool;
    for (int p = 0; p < 8; ++p)
        pool.push_back(make_line(100 + p, rng.next_below(64)));
    std::vector<LlcAccess> s;
    for (int i = 0; i < 2000; ++i) {
        if (rng.next_below(4) != 0) {
            s.push_back(acc(1, pool[rng.next_below(pool.size())]));
            continue;
        }
        // Infrequent: random page, boundary-biased offset.
        const Addr page = 50 + rng.next_below(5000);
        const std::uint64_t r = rng.next_below(4);
        const std::uint64_t off =
            r == 0 ? 0 : r == 1 ? 63 : rng.next_below(64);
        s.push_back(acc(2, make_line(page, off)));
    }
    // More distinct page deltas than get tokens: some go out-of-vocab.
    const auto v = Vocabulary::build(s);

    std::optional<Addr> prev;
    std::size_t delta_tokens = 0;
    std::size_t oov_pages = 0;
    for (const auto &a : s) {
        const Token t = v.encode(a.pc, a.line, prev);
        if (!prev) {
            EXPECT_FALSE(t.is_delta);  // nothing to be relative to
        }
        if (t.is_delta)
            ++delta_tokens;
        if (t.page == Vocabulary::kOovPage) {
            ++oov_pages;
        } else {
            const auto line =
                v.decode(t.page, t.offset, prev.value_or(0));
            ASSERT_TRUE(line.has_value());
            EXPECT_EQ(*line, a.line);
        }
        prev = a.line;
    }
    // The stream must actually exercise all three encodings.
    EXPECT_GT(delta_tokens, 0u);
    EXPECT_GT(oov_pages, 0u);

    // Lines never seen during profiling fall back to the absolute
    // path (missing from the infrequent filter means frequent); a
    // page outside the vocabulary must come back OOV, not crash.
    const Token unseen = v.encode(77, make_line(999999, 17), pool[0]);
    EXPECT_FALSE(unseen.is_delta);
    EXPECT_EQ(unseen.page, Vocabulary::kOovPage);
}

TEST(Vocab, FrequentThresholdRespected)
{
    // A line seen kMinAddrFreq times is frequent (absolute); a line
    // seen once fewer becomes a delta.
    std::vector<LlcAccess> s;
    for (std::uint64_t k = 0; k < kMinAddrFreq; ++k) {
        s.push_back(acc(1, 0x100));
        if (k + 1 < kMinAddrFreq)
            s.push_back(acc(2, 0x9990));
    }
    const auto v = Vocabulary::build(s);
    EXPECT_FALSE(v.encode(1, 0x100, 0x9990).is_delta);
    const Token t = v.encode(2, 0x9990, 0x100);
    EXPECT_TRUE(t.is_delta || t.page == Vocabulary::kOovPage);
}

}  // namespace
}  // namespace voyager::core
