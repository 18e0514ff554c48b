/**
 * @file
 * Tests for the rule-based baseline prefetchers: each learns exactly
 * the pattern class its paper describes.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch/best_offset.hpp"
#include "prefetch/domino.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/isb.hpp"
#include "prefetch/registry.hpp"
#include "prefetch/stms.hpp"
#include "prefetch/stride.hpp"
#include "reference.hpp"
#include "util/random.hpp"

namespace voyager::prefetch {
namespace {

sim::LlcAccess
acc(Addr pc, Addr line, std::uint64_t index = 0)
{
    sim::LlcAccess a;
    a.index = index;
    a.pc = pc;
    a.line = line;
    a.is_load = true;
    return a;
}

/** Feed a (pc, line) sequence; return predictions at each step. */
template <typename P>
std::vector<std::vector<Addr>>
feed(P &pf, const std::vector<std::pair<Addr, Addr>> &seq)
{
    std::vector<std::vector<Addr>> out;
    std::uint64_t i = 0;
    for (const auto &[pc, line] : seq)
        out.push_back(pf.on_access(acc(pc, line, i++)));
    return out;
}

TEST(Stms, LearnsGlobalSuccessor)
{
    Stms s(1);
    feed(s, {{1, 100}, {1, 200}, {1, 300}});
    // Revisit 100: should predict its recorded successor 200.
    const auto p = s.on_access(acc(1, 100));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 200u);
}

TEST(Stms, DegreeFollowsHistoryRun)
{
    Stms s(3);
    feed(s, {{1, 100}, {1, 200}, {1, 300}, {1, 400}});
    const auto p = s.on_access(acc(1, 100));
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], 200u);
    EXPECT_EQ(p[1], 300u);
    EXPECT_EQ(p[2], 400u);
}

TEST(Stms, GlobalStreamConfusedByInterleaving)
{
    // Two interleaved streams: the global successor of 100 keeps
    // changing, so STMS predicts the stale interleaved line.
    Stms s(1);
    feed(s, {{1, 100}, {2, 900}, {1, 101}, {2, 901}});
    const auto p = s.on_access(acc(1, 100));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 900u);  // not 101: the PC-blind weakness
}

TEST(Stms, StorageGrowsWithHistory)
{
    Stms s(1);
    const auto before = s.storage_bytes();
    feed(s, {{1, 1}, {1, 2}, {1, 3}});
    EXPECT_GT(s.storage_bytes(), before);
}

TEST(Isb, LearnsPcLocalizedStream)
{
    Isb isb(1);
    // PC 1 touches 100,200,300 interleaved with PC 2 noise.
    feed(isb, {{1, 100}, {2, 900}, {1, 200}, {2, 905}, {1, 300}});
    const auto p = isb.on_access(acc(1, 100));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 200u);  // ISB sees through the interleaving
}

TEST(Isb, DegreeWalksStructuralStream)
{
    Isb isb(3);
    feed(isb, {{1, 10}, {1, 20}, {1, 30}, {1, 40}});
    const auto p = isb.on_access(acc(1, 10));
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], 20u);
    EXPECT_EQ(p[1], 30u);
    EXPECT_EQ(p[2], 40u);
}

TEST(Isb, SharedAddressKeepsFirstLearnedStream)
{
    Isb isb(1);
    // Stream A: 1 -> 2 ; then stream B: 7 -> 2 (line 2 shared). The
    // first-learned home of line 2 (stream A) is kept so loops stay
    // intact.
    feed(isb, {{1, 1}, {1, 2}, {9, 7}, {9, 2}});
    // Probe with fresh PCs so the probes themselves don't retrain.
    const auto from_a = isb.on_access(acc(6, 1));
    ASSERT_EQ(from_a.size(), 1u);
    EXPECT_EQ(from_a[0], 2u);
    const auto from_b = isb.on_access(acc(5, 7));
    EXPECT_TRUE(from_b.empty());
}

TEST(Isb, StableAcrossRepeatingLoop)
{
    Isb isb(1);
    // A repeating PC-localized loop: after the first lap, every access
    // predicts its successor, laps after that change nothing.
    for (int lap = 0; lap < 3; ++lap)
        feed(isb, {{1, 10}, {1, 20}, {1, 30}});
    const auto p = isb.on_access(acc(5, 20));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 30u);
    EXPECT_EQ(isb.num_streams(), 1u);
}

TEST(Isb, CountsStreams)
{
    Isb isb(1);
    feed(isb, {{1, 10}, {1, 20}, {2, 500}, {2, 600}});
    EXPECT_EQ(isb.num_streams(), 2u);
    EXPECT_GT(isb.storage_bytes(), 0u);
}

TEST(Domino, PairContextDisambiguates)
{
    Domino d(1);
    // Sequence: A B C ... X B D — successor of B depends on what
    // preceded B; the single-address table alone cannot separate them.
    feed(d, {{1, 10}, {1, 20}, {1, 30},   // (10,20)->30
             {1, 90}, {1, 20}, {1, 40}}); // (90,20)->40
    // Replay "10, 20": pair context should predict 30.
    d.on_access(acc(1, 10));
    const auto p = d.on_access(acc(1, 20));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 30u);
}

TEST(Domino, FallsBackToSingleTable)
{
    Domino d(1);
    feed(d, {{1, 10}, {1, 20}});
    // Fresh context (99, 10): pair unseen, single table knows 10->20.
    d.on_access(acc(1, 99));
    const auto p = d.on_access(acc(1, 10));
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 20u);
}

TEST(Domino, ChainsForHigherDegree)
{
    Domino d(3);
    feed(d, {{1, 10}, {1, 20}, {1, 30}, {1, 40}, {1, 50}});
    d.on_access(acc(1, 10));
    const auto p = d.on_access(acc(1, 20));
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], 30u);
    EXPECT_EQ(p[1], 40u);
    EXPECT_EQ(p[2], 50u);
}

TEST(BestOffset, OffsetListIsClassic52)
{
    const auto &offs = BestOffset::offset_list();
    EXPECT_EQ(offs.size(), 52u);
    EXPECT_EQ(offs.front(), 1);
    EXPECT_EQ(offs.back(), 256);
    // 7 has a prime factor other than {2,3,5}.
    EXPECT_EQ(std::find(offs.begin(), offs.end(), 7), offs.end());
}

TEST(BestOffset, LearnsConstantStride)
{
    BestOffset bo(1);
    // Unit-stride stream long enough to saturate the score.
    Addr line = 1000;
    std::vector<Addr> last;
    for (int i = 0; i < 4000; ++i) {
        last = bo.on_access(acc(1, line));
        line += 2;
    }
    EXPECT_EQ(bo.current_offset(), 2);
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0], line - 2 + 2);
}

TEST(BestOffset, StaysQuietOnRandomStream)
{
    BestOffset bo;
    Rng rng(5);
    std::size_t issued = 0;
    // Three learning phases of 100 rounds over the 52 offsets each.
    for (int i = 0; i < 3 * 100 * 52; ++i)
        issued += !bo.on_access(acc(1, rng.next_below(1 << 30))).empty();
    // With no recurring offset, BO should (almost) never adopt one.
    EXPECT_LT(issued, 1500u);
    EXPECT_EQ(bo.current_offset(), 0);
}

TEST(BestOffset, SamePageRestrictionHolds)
{
    BestOffset bo(8);
    Addr line = 0;
    for (int i = 0; i < 4000; ++i) {
        const auto p = bo.on_access(acc(1, line));
        for (const Addr c : p)
            EXPECT_EQ(page_of_line(c), page_of_line(line));
        line += 1;
    }
}

TEST(IpStride, DetectsPerPcStride)
{
    IpStride s(2);
    std::vector<Addr> p;
    for (int i = 0; i < 10; ++i)
        p = s.on_access(acc(7, 100 + static_cast<Addr>(i) * 3));
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 100 + 9 * 3 + 3);
    EXPECT_EQ(p[1], 100 + 9 * 3 + 6);
}

TEST(IpStride, InterleavedPcsKeepSeparateStrides)
{
    IpStride s(1);
    std::vector<Addr> pa;
    std::vector<Addr> pb;
    for (int i = 0; i < 10; ++i) {
        pa = s.on_access(acc(1, 100 + static_cast<Addr>(i) * 2));
        pb = s.on_access(acc(2, 5000 + static_cast<Addr>(i) * 7));
    }
    ASSERT_EQ(pa.size(), 1u);
    ASSERT_EQ(pb.size(), 1u);
    EXPECT_EQ(pa[0], 100 + 9 * 2 + 2);
    EXPECT_EQ(pb[0], 5000 + 9 * 7 + 7);
}

TEST(IpStride, NoPredictionWithoutConfidence)
{
    IpStride s(1);
    EXPECT_TRUE(s.on_access(acc(1, 10)).empty());
    EXPECT_TRUE(s.on_access(acc(1, 20)).empty());  // first stride obs
}

TEST(NextLine, PredictsSequentialLines)
{
    NextLine n(3);
    const auto p = n.on_access(acc(1, 100));
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], 101u);
    EXPECT_EQ(p[2], 103u);
}

TEST(Hybrid, SplitsDegreeBetweenComponents)
{
    auto h = make_isb_bo_hybrid(4);
    EXPECT_EQ(h->name(), "isb+bo");
    // Train both components on a unit-stride stream; eventually both
    // contribute candidates, capped at their 2+2 shares.
    std::vector<Addr> p;
    for (int i = 0; i < 4000; ++i)
        p = h->on_access(acc(1, 1000 + static_cast<Addr>(i)));
    EXPECT_LE(p.size(), 4u);
    EXPECT_GE(p.size(), 2u);
}

TEST(Hybrid, DegreeOneFallsBackToIsb)
{
    // At degree 1 BO has no share, so the hybrid is ISB alone: the
    // same candidates, call for call, and no BO storage. A unit-stride
    // run (where BO would have a best offset) and a repeated irregular
    // sequence over three PCs (where ISB predicts).
    std::vector<std::pair<Addr, Addr>> seq;
    for (Addr i = 0; i < 3000; ++i)
        seq.emplace_back(1, 1000 + i);
    Rng rng(7);
    std::vector<std::pair<Addr, Addr>> irregular;
    for (int i = 0; i < 500; ++i)
        irregular.emplace_back(2 + rng.next_u64() % 3,
                               rng.next_u64() % 100000);
    for (int rep = 0; rep < 3; ++rep)
        seq.insert(seq.end(), irregular.begin(), irregular.end());
    auto h = make_isb_bo_hybrid(1);
    Isb isb(1);
    const auto got = feed(*h, seq);
    const auto want = feed(isb, seq);
    EXPECT_EQ(got, want);
    EXPECT_GT(std::count_if(want.begin(), want.end(),
                            [](const auto &p) { return !p.empty(); }),
              500);
    EXPECT_EQ(h->storage_bytes(), isb.storage_bytes());
}

TEST(Hybrid, RejectsEmptyParts)
{
    EXPECT_THROW(
        Hybrid("bad", {}, {}),
        std::invalid_argument);
    // A part with no share of the degree is left out, not built.
    std::vector<std::unique_ptr<Prefetcher>> parts;
    parts.push_back(std::make_unique<Isb>(1));
    EXPECT_THROW(Hybrid("bad", std::move(parts), {0}),
                 std::invalid_argument);
    EXPECT_THROW(make_isb_bo_hybrid(0), std::invalid_argument);
}

TEST(Registry, CreatesAllNames)
{
    for (const auto &name : rule_based_names()) {
        auto p = make_prefetcher(name, 2);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_EQ(make_prefetcher("none")->name(), "none");
    EXPECT_THROW(make_prefetcher("bogus"), std::invalid_argument);
}

TEST(Oracle, PredictsNextLoadLines)
{
    std::vector<sim::LlcAccess> stream;
    auto add = [&stream](Addr line, bool is_load) {
        sim::LlcAccess a;
        a.index = stream.size();
        a.line = line;
        a.is_load = is_load;
        stream.push_back(a);
    };
    add(10, true);
    add(20, false);  // store: never a label
    add(30, true);
    add(40, true);
    const auto preds = oracle_predictions(stream, 2);
    ASSERT_EQ(preds.size(), 4u);
    EXPECT_EQ(preds[0], (std::vector<Addr>{30, 40}));
    EXPECT_EQ(preds[1], (std::vector<Addr>{30, 40}));
    EXPECT_EQ(preds[2], (std::vector<Addr>{40}));
    EXPECT_TRUE(preds[3].empty());
}

}  // namespace
}  // namespace voyager::prefetch
