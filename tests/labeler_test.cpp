/**
 * @file
 * Tests for the five labeling schemes on hand-built streams, and a
 * differential test of `compute_labels` against a nested-map oracle
 * on generated workload streams.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "core/labeler.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager::core {
namespace {

LlcAccess
acc(Addr pc, Addr line, bool load = true)
{
    LlcAccess a;
    a.pc = pc;
    a.line = line;
    a.is_load = load;
    return a;
}

std::optional<Addr>
lab(const LabelSet &set, LabelScheme s)
{
    return set[static_cast<std::size_t>(s)];
}

TEST(Labeler, SchemeNames)
{
    EXPECT_EQ(label_scheme_name(LabelScheme::Global), "global");
    EXPECT_EQ(label_scheme_name(LabelScheme::CoOccurrence),
              "co_occurrence");
}

TEST(Labeler, GlobalIsNextLoad)
{
    const std::vector<LlcAccess> s = {
        acc(1, 10), acc(2, 20, /*load=*/false), acc(3, 30)};
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::Global), 30u);  // store skipped
    EXPECT_EQ(lab(labels[1], LabelScheme::Global), 30u);
    EXPECT_FALSE(lab(labels[2], LabelScheme::Global).has_value());
}

TEST(Labeler, PcLocalizedSeesThroughInterleaving)
{
    // PC 1 touches 10 then 11; PC 2 interleaves 90, 91.
    const std::vector<LlcAccess> s = {acc(0x100, 10), acc(0x900, 90),
                                      acc(0x100, 11), acc(0x900, 91)};
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::Pc), 11u);
    EXPECT_EQ(lab(labels[1], LabelScheme::Pc), 91u);
    EXPECT_FALSE(lab(labels[2], LabelScheme::Pc).has_value());
    // Global label of access 0 is the interleaved 90.
    EXPECT_EQ(lab(labels[0], LabelScheme::Global), 90u);
}

TEST(Labeler, BasicBlockGroupsNearbyPcs)
{
    // PCs 0x400100 and 0x400104 share a 256 B block; 0x400300 doesn't.
    const std::vector<LlcAccess> s = {acc(0x400100, 10),
                                      acc(0x400300, 50),
                                      acc(0x400104, 20)};
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::BasicBlock), 20u);
    EXPECT_FALSE(lab(labels[1], LabelScheme::BasicBlock).has_value());
}

TEST(Labeler, SpatialWithinRange)
{
    const std::vector<LlcAccess> s = {acc(1, 1000), acc(2, 5000),
                                      acc(3, 1100), acc(4, 900),
                                      acc(5, 900 + kSpatialRange)};
    const auto labels = compute_labels(s);
    // 5000 is out of range of 1000; 1100 is the first in-range load.
    EXPECT_EQ(lab(labels[0], LabelScheme::Spatial), 1100u);
    EXPECT_EQ(lab(labels[2], LabelScheme::Spatial), 900u);
    // The range is inclusive.
    EXPECT_EQ(lab(labels[3], LabelScheme::Spatial), 900u + kSpatialRange);
}

TEST(Labeler, SpatialHorizonLimitsSearch)
{
    // The in-range load sits just past the horizon, then just inside.
    for (const std::size_t far : {kSpatialHorizon, kSpatialHorizon - 1}) {
        std::vector<LlcAccess> s = {acc(1, 1000)};
        for (std::size_t k = 0; k < far; ++k)
            s.push_back(acc(2, 500000 + 1000 * k));
        s.push_back(acc(3, 1001));
        const auto labels = compute_labels(s);
        EXPECT_EQ(lab(labels[0], LabelScheme::Spatial).has_value(),
                  far < kSpatialHorizon)
            << far << " out-of-range loads in between";
    }
}

TEST(Labeler, CoOccurrencePicksMostFrequentFollower)
{
    // After every 10: line 77 appears twice in window, 88 once.
    std::vector<LlcAccess> s;
    for (int rep = 0; rep < 3; ++rep) {
        s.push_back(acc(1, 10));
        s.push_back(acc(2, 77));
        s.push_back(acc(3, rep == 0 ? 88 : 77));
    }
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::CoOccurrence), 77u);
}

TEST(Labeler, CoOccurrenceWindowBounds)
{
    // After each 10: 20 once inside the window, then 30 twice just
    // past it. Counted over a wider window, 30 would win.
    std::vector<LlcAccess> s;
    for (Addr rep = 0; rep < 3; ++rep) {
        s.push_back(acc(1, 10));
        s.push_back(acc(2, 20));
        for (std::size_t k = 1; k < kCooccurrenceWindow; ++k)
            s.push_back(acc(3, 1000 + 100 * rep + k));
        s.push_back(acc(4, 30));
        s.push_back(acc(4, 30));
    }
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::CoOccurrence), 20u);
}

TEST(Labeler, CoOccurrenceTieTakesSmallerLine)
{
    // After each 10, lines 50 and 30 follow equally often; 50 is seen
    // first, but equal counts go to the smaller line address.
    const std::vector<LlcAccess> s = {acc(1, 10), acc(2, 50), acc(3, 30),
                                      acc(1, 10), acc(2, 50), acc(3, 30)};
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::CoOccurrence), 30u);
    EXPECT_EQ(lab(labels[3], LabelScheme::CoOccurrence), 30u);
}

TEST(Labeler, SoplexStylePatternCoOccurrence)
{
    // Fig. 16: vec[leave] follows upd[leave] regardless of which PC
    // loads it. The co-occurrence label of upd is vec even though the
    // PC-localized label alternates.
    std::vector<LlcAccess> s;
    const Addr upd = 1000;
    const Addr vec = 9000;
    for (int i = 0; i < 6; ++i) {
        s.push_back(acc(0x500, upd));
        // Alternate branch arms: different PC, same vec line.
        s.push_back(acc(i % 2 ? 0x600 : 0x700, vec));
        s.push_back(acc(0x800, 2000 + static_cast<Addr>(i) * 997));
    }
    const auto labels = compute_labels(s);
    EXPECT_EQ(lab(labels[0], LabelScheme::CoOccurrence), vec);
}

TEST(Labeler, DistinctLabelsDeduplicates)
{
    const std::vector<LlcAccess> s = {acc(1, 10), acc(1, 20)};
    const auto labels = compute_labels(s);
    // Global, PC, basic-block and co-occurrence all say 20.
    const auto d = distinct_labels(
        labels[0],
        {LabelScheme::Global, LabelScheme::Pc, LabelScheme::BasicBlock,
         LabelScheme::CoOccurrence});
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0], 20u);
}

TEST(Labeler, StoresAreNeverLabels)
{
    const std::vector<LlcAccess> s = {acc(1, 10), acc(1, 20, false),
                                      acc(1, 30)};
    const auto labels = compute_labels(s);
    for (const auto scheme :
         {LabelScheme::Global, LabelScheme::Pc, LabelScheme::Spatial}) {
        const auto l = lab(labels[0], scheme);
        if (l.has_value()) {
            EXPECT_NE(*l, 20u);
        }
    }
}

TEST(Labeler, EmptyStream)
{
    EXPECT_TRUE(compute_labels({}).empty());
}

/** The nested-map labeler the flat one replaced, kept as the oracle:
 *  one hash map of follower counts per distinct line. It spells out
 *  the labeler's values (paper §4.4 and DESIGN.md decision 9), so a
 *  changed constant fails the differential too. */
std::vector<LabelSet>
reference_labels(const std::vector<LlcAccess> &stream)
{
    constexpr std::int64_t kSpatialRange = 256;
    constexpr std::size_t kSpatialHorizon = 32;
    constexpr std::size_t kCooccurrenceWindow = 10;
    constexpr int kBasicBlockShift = 8;
    constexpr std::size_t kLabelHorizon = 32;
    const std::size_t n = stream.size();
    std::vector<LabelSet> labels(n);
    {
        auto within = [](std::size_t from, std::size_t at) {
            return at - from <= kLabelHorizon;
        };
        std::optional<std::size_t> next_global;
        std::unordered_map<Addr, std::size_t> next_by_pc;
        std::unordered_map<Addr, std::size_t> next_by_bb;
        for (std::size_t i = n; i-- > 0;) {
            const auto &a = stream[i];
            const Addr bb = a.pc >> kBasicBlockShift;
            if (next_global && within(i, *next_global)) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::Global)] = stream[*next_global].line;
            }
            if (auto it = next_by_pc.find(a.pc);
                it != next_by_pc.end() && within(i, it->second)) {
                labels[i][static_cast<std::size_t>(LabelScheme::Pc)] =
                    stream[it->second].line;
            }
            if (auto it = next_by_bb.find(bb);
                it != next_by_bb.end() && within(i, it->second)) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::BasicBlock)] = stream[it->second].line;
            }
            if (a.is_load) {
                next_global = i;
                next_by_pc[a.pc] = i;
                next_by_bb[bb] = i;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const auto line = static_cast<std::int64_t>(stream[i].line);
        const std::size_t end = std::min(n, i + 1 + kSpatialHorizon);
        for (std::size_t j = i + 1; j < end; ++j) {
            if (!stream[j].is_load)
                continue;
            const auto cand = static_cast<std::int64_t>(stream[j].line);
            if (std::llabs(cand - line) <= kSpatialRange) {
                labels[i][static_cast<std::size_t>(
                    LabelScheme::Spatial)] = stream[j].line;
                break;
            }
        }
    }
    {
        std::unordered_map<Addr, std::unordered_map<Addr, std::uint32_t>>
            follower_counts;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr a = stream[i].line;
            const std::size_t end =
                std::min(n, i + 1 + kCooccurrenceWindow);
            auto &counts = follower_counts[a];
            for (std::size_t j = i + 1; j < end; ++j) {
                if (stream[j].is_load && stream[j].line != a)
                    ++counts[stream[j].line];
            }
        }
        std::unordered_map<Addr, Addr> best;
        for (const auto &[line, counts] : follower_counts) {
            Addr arg = 0;
            std::uint32_t mx = 0;
            for (const auto &[cand, cnt] : counts) {
                if (cnt > mx || (cnt == mx && cand < arg)) {
                    mx = cnt;
                    arg = cand;
                }
            }
            if (mx > 0)
                best.emplace(line, arg);
        }
        for (std::size_t i = 0; i < n; ++i) {
            auto it = best.find(stream[i].line);
            if (it == best.end())
                continue;
            const std::size_t end =
                std::min(n, i + 1 + kCooccurrenceWindow);
            for (std::size_t j = i + 1; j < end; ++j) {
                if (stream[j].is_load && stream[j].line == it->second) {
                    labels[i][static_cast<std::size_t>(
                        LabelScheme::CoOccurrence)] = it->second;
                    break;
                }
            }
        }
    }
    return labels;
}

/** Every scheme of every access equal to the oracle's; reports the
 *  first mismatch only. */
void
expect_matches_reference(const std::string &what,
                         const std::vector<LlcAccess> &stream)
{
    ASSERT_FALSE(stream.empty()) << what;
    const auto got = compute_labels(stream);
    const auto want = reference_labels(stream);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        for (const auto s : all_label_schemes()) {
            ASSERT_EQ(lab(got[i], s), lab(want[i], s))
                << what << " access " << i << " "
                << label_scheme_name(s);
        }
    }
}

/** The stream training uses at `scale`: the raw access stream of the
 *  OLTP workloads, the no-prefetch LLC stream of every other one. */
std::vector<LlcAccess>
workload_stream(const std::string &benchmark, trace::gen::Scale scale,
                const sim::SimConfig &sim_cfg)
{
    const auto t = trace::gen::make_workload(benchmark, scale, 1);
    const auto &oltp = trace::gen::oltp_benchmarks();
    if (std::find(oltp.begin(), oltp.end(), benchmark) == oltp.end())
        return sim::extract_llc_stream(t, sim_cfg);
    std::vector<LlcAccess> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        out[i].index = i;
        out[i].pc = t[i].pc;
        out[i].line = t[i].line();
        out[i].is_load = t[i].is_load;
    }
    return out;
}

TEST(LabelerDifferential, EveryTinyWorkloadMatchesNestedMapOracle)
{
    for (const auto &b : trace::gen::all_benchmarks()) {
        expect_matches_reference(
            b, workload_stream(b, trace::gen::Scale::Tiny,
                               sim::tiny_sim_config()));
    }
}

TEST(LabelerDifferential, SmallPerfbenchStreamsMatchNestedMapOracle)
{
    // The repository benchmark's training stream: Small scale, small
    // hierarchy, the first 20000 LLC accesses.
    for (const char *b : {"xalancbmk", "bfs", "mcf"}) {
        auto stream = workload_stream(b, trace::gen::Scale::Small,
                                      sim::small_sim_config());
        if (stream.size() > 20000)
            stream.resize(20000);
        expect_matches_reference(b, stream);
    }
}

}  // namespace
}  // namespace voyager::core
