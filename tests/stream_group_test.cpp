/**
 * @file
 * StreamGroup prefetcher tests (DESIGN.md §5.17): the differential
 * compatibility contract against the classic IP-stride baseline, unit
 * tests for stride classification / the confidence-ramped degree / the
 * repetition fast-track, and the stream-table replacement audit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "prefetch/registry.hpp"
#include "prefetch/stream_group.hpp"
#include "prefetch/stride.hpp"
#include "reference.hpp"
#include "util/random.hpp"

namespace voyager {
namespace {

using prefetch::IpStride;
using prefetch::StreamGroup;

sim::LlcAccess
acc(Addr pc, Addr line)
{
    sim::LlcAccess a;
    a.pc = pc;
    a.line = line;
    return a;
}

/**
 * Differential contract: on a pure single-stride stream whose stride
 * is within the dense class, StreamGroup with max_degree == D must
 * issue exactly IpStride(D)'s predictions — same lines, same order, on
 * the same accesses — once both are past warm-up.
 */
class StreamGroupDifferential
    : public ::testing::TestWithParam<std::tuple<std::int64_t,
                                                 std::uint32_t>>
{
};

TEST_P(StreamGroupDifferential, MatchesIpStrideOnPureStream)
{
    const auto [stride, degree] = GetParam();
    IpStride ip(degree);
    StreamGroup sg(degree);
    constexpr int kWarmup = 16;
    for (int i = 0; i < 400; ++i) {
        const Addr line =
            static_cast<Addr>(1000000 + stride * i);
        const auto expect = ip.on_access(acc(7, line));
        const auto got = sg.on_access(acc(7, line));
        if (i < kWarmup)
            continue;  // degrees ramp independently during training
        ASSERT_EQ(got, expect)
            << "stride " << stride << " degree " << degree
            << " diverges at access " << i;
        ASSERT_FALSE(got.empty()) << "no predictions after warm-up";
    }
}

INSTANTIATE_TEST_SUITE_P(
    DenseStrides, StreamGroupDifferential,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, -1, -2),
                       ::testing::Values<std::uint32_t>(1, 2, 4)));

/**
 * Coverage non-regression: a strided stream with injected random
 * noise. IpStride's single entry is corrupted by every noise access
 * and must re-train; StreamGroup diverts noise to a separate stream,
 * so its coverage of the demand stream must never be lower.
 */
TEST(StreamGroupDifferentialNoise, NeverRegressesStrideCoverage)
{
    auto run = [](sim::Prefetcher &pf) {
        Rng rng(11);
        std::unordered_set<Addr> predicted;
        Addr line = 500000;
        std::uint64_t covered = 0;
        for (int i = 0; i < 4000; ++i) {
            Addr l;
            if (rng.next_below(8) == 0)
                l = (1u << 21) + rng.next_below(1u << 18);
            else
                l = line++;
            covered += predicted.count(l) != 0;
            for (const Addr p : pf.on_access(acc(9, l)))
                predicted.insert(p);
        }
        return covered;
    };
    IpStride ip(4);
    StreamGroup sg(4);
    const auto ip_covered = run(ip);
    const auto sg_covered = run(sg);
    EXPECT_GE(sg_covered, ip_covered);
    EXPECT_GT(sg_covered, 0u);
}

TEST(StreamGroupUnit, DegreeRampsWithRunLength)
{
    StreamGroup sg;  // dense cap 4, medium 2, sparse 1
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 12; ++i)
        sizes.push_back(sg.on_access(acc(3, 100 + i)).size());
    // No predictions below the confidence threshold; then the degree
    // ramps sparse (1) -> medium (2) -> dense (4) as the run lengthens.
    const std::vector<std::size_t> expect = {0, 0, 0, 1, 2, 2, 2, 2,
                                             4, 4, 4, 4};
    EXPECT_EQ(sizes, expect);
}

TEST(StreamGroupUnit, MediumAndSparseStridesCapDegree)
{
    StreamGroup sg;
    std::vector<Addr> medium;
    std::vector<Addr> sparse;
    for (int i = 0; i < 40; ++i) {
        // |stride| 8: medium class. |stride| 32: sparse class.
        medium = sg.on_access(acc(1, 1000 + 8 * i));
        sparse = sg.on_access(acc(2, 900000 + 32 * i));
    }
    EXPECT_EQ(medium.size(), 2u);
    EXPECT_EQ(sparse.size(), 1u);
    // Predicted lines run ahead along the stride.
    EXPECT_EQ(medium[0], 1000 + 8 * 39 + 8u);
    EXPECT_EQ(medium[1], 1000 + 8 * 39 + 16u);
    EXPECT_EQ(sparse[0], 900000 + 32 * 39 + 32u);
}

TEST(StreamGroupUnit, ZeroStrideNeverPredicts)
{
    StreamGroup sg;
    std::vector<Addr> out;
    for (int i = 0; i < 20; ++i)
        out = sg.on_access(acc(4, 7777));
    EXPECT_TRUE(out.empty());
}

TEST(StreamGroupUnit, InterleavedStreamsOnOnePcBothPredict)
{
    // Two strided walks issued by the same PC (two attention heads):
    // a single-entry stride table sees an alternating +/-delta and
    // never predicts; the stream group tracks both.
    StreamGroup sg;
    std::vector<Addr> out_a;
    std::vector<Addr> out_b;
    for (int i = 0; i < 30; ++i) {
        out_a = sg.on_access(acc(5, 10000 + i));
        out_b = sg.on_access(acc(5, 90000 + i));
    }
    EXPECT_FALSE(out_a.empty());
    EXPECT_FALSE(out_b.empty());
    EXPECT_EQ(out_a[0], 10000 + 29 + 1u);
    EXPECT_EQ(out_b[0], 90000 + 29 + 1u);
    EXPECT_EQ(sg.group_size(1), 2u);
}

TEST(StreamGroupUnit, FastTrackSkipsTrainingOnReenteredStream)
{
    // A weight-matrix stream: 12-line run, then the stream re-enters
    // from its base (next decode step). The re-entered run must be
    // recognized from the pattern history and predict at the full
    // learned degree from its second access, instead of re-training.
    StreamGroup sg;
    for (int i = 0; i < 12; ++i)
        sg.on_access(acc(6, 4000 + i));
    EXPECT_EQ(sg.fast_tracks(), 0u);
    sg.on_access(acc(6, 4000));  // jump back: terminates the run
    const auto out = sg.on_access(acc(6, 4001));
    EXPECT_EQ(sg.fast_tracks(), 1u);
    ASSERT_EQ(out.size(), 4u) << "re-entered stream not fast-tracked";
    EXPECT_EQ(out[0], 4002u);
    EXPECT_GE(sg.patterns_recorded(), 1u);
}

TEST(StreamGroupUnit, FastTrackExpiresOutsideReuseWindow)
{
    StreamGroup sg;
    for (int i = 0; i < 12; ++i)
        sg.on_access(acc(6, 4000 + i));
    // Churn the table until the stream's PC is evicted (which records
    // its pattern), then keep going far past the reuse window.
    const int churn = static_cast<int>(StreamGroup::kMaxPcs +
                                       StreamGroup::kHistoryWindow) + 64;
    for (int i = 0; i < churn; ++i)
        sg.on_access(acc(100 + i, 1u << 20));
    ASSERT_GE(sg.patterns_recorded(), 1u);
    sg.on_access(acc(6, 4000));
    const auto out = sg.on_access(acc(6, 4001));
    EXPECT_EQ(sg.fast_tracks(), 0u);
    EXPECT_TRUE(out.empty()) << "expired pattern must re-train";
}

TEST(StreamGroupUnit, InRegistryAndObeysDegree)
{
    auto p = prefetch::make_prefetcher("stream_group", 2);
    EXPECT_EQ(p->name(), "stream_group");
    const auto &names = prefetch::rule_based_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "stream_group"),
              names.end());
    std::vector<Addr> out;
    for (int i = 0; i < 50; ++i)
        out = p->on_access(acc(1, 100 + i));
    EXPECT_EQ(out.size(), 2u);
    EXPECT_GT(p->storage_bytes(), 0u);
}

TEST(StreamGroupReplacement, TableStaysBounded)
{
    StreamGroup sg;
    for (int i = 0; i < 2000; ++i)
        sg.on_access(acc(1000 + i, 5000 + i));
    EXPECT_LE(sg.table_pcs(), StreamGroup::kMaxPcs);
    EXPECT_GE(sg.pc_evictions(), 2000u - StreamGroup::kMaxPcs);
    // Storage accounting reflects the bound (table + history).
    const std::uint64_t per_pc = 16 + 27 * StreamGroup::kStreamsPerPc;
    EXPECT_LE(sg.storage_bytes(), StreamGroup::kMaxPcs * per_pc +
                                      StreamGroup::kHistorySize * 26);
}

TEST(StreamGroupReplacement, ActiveStreamSurvivesPcChurn)
{
    // An active stream must never be dropped mid-run: one-shot PCs
    // churn the table while the hot stream keeps advancing.
    StreamGroup sg;
    Addr hot_line = 100000;
    for (int i = 0; i < 16; ++i)
        sg.on_access(acc(7, hot_line++));
    ASSERT_TRUE(sg.is_established(7, 1));
    std::vector<Addr> out;
    for (int i = 0; i < 2000; ++i) {
        sg.on_access(acc(5000 + i, 9000 + 100 * i));
        if (i % 4 == 3) {
            out = sg.on_access(acc(7, hot_line++));
            ASSERT_FALSE(out.empty())
                << "hot stream dropped after " << i << " cold PCs";
        }
    }
    EXPECT_TRUE(sg.is_established(7, 1));
    EXPECT_EQ(out[0], hot_line - 1 + 1u);
}

TEST(StreamGroupReplacement, GroupedStreamsSurviveNoiseWithinPc)
{
    // Two established same-stride streams on one PC form a group of
    // two, which protects them from within-PC eviction while noise
    // accesses allocate and recycle the remaining slots.
    StreamGroup sg;
    Addr a = 10000;
    Addr b = 90000;
    for (int i = 0; i < 20; ++i) {
        sg.on_access(acc(8, a++));
        sg.on_access(acc(8, b++));
    }
    ASSERT_EQ(sg.group_size(1), 2u);
    for (int i = 0; i < 10; ++i)
        sg.on_access(acc(8, (1u << 22) + 1000u * i));
    EXPECT_GT(sg.stream_evictions(), 0u)
        << "noise was expected to recycle the unprotected slots";
    const auto out_a = sg.on_access(acc(8, a++));
    const auto out_b = sg.on_access(acc(8, b++));
    EXPECT_FALSE(out_a.empty()) << "grouped stream a was evicted";
    EXPECT_FALSE(out_b.empty()) << "grouped stream b was evicted";
    EXPECT_TRUE(sg.is_established(8, 1));
}

}  // namespace
}  // namespace voyager
