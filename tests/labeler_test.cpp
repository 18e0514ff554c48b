/**
 * @file
 * Tests for the five labeling schemes on hand-built streams.
 */
#include <gtest/gtest.h>

#include "core/labeler.hpp"

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
    LabelerConfig cfg;
    cfg.spatial_range = 256;
    const std::vector<LlcAccess> s = {acc(1, 1000), acc(2, 5000),
                                      acc(3, 1100), acc(4, 900)};
    const auto labels = compute_labels(s, cfg);
    // 5000 is out of range of 1000; 1100 is the first in-range load.
    EXPECT_EQ(lab(labels[0], LabelScheme::Spatial), 1100u);
    EXPECT_EQ(lab(labels[2], LabelScheme::Spatial), 900u);
}

TEST(Labeler, SpatialHorizonLimitsSearch)
{
    LabelerConfig cfg;
    cfg.spatial_horizon = 1;
    const std::vector<LlcAccess> s = {acc(1, 1000), acc(2, 500000),
                                      acc(3, 1001)};
    const auto labels = compute_labels(s, cfg);
    EXPECT_FALSE(lab(labels[0], LabelScheme::Spatial).has_value());
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
    LabelerConfig cfg;
    cfg.cooccurrence_window = 1;
    const std::vector<LlcAccess> s = {acc(1, 10), acc(2, 20),
                                      acc(3, 30), acc(1, 10),
                                      acc(2, 20)};
    const auto labels = compute_labels(s, cfg);
    // Only the immediate follower is in the window: 20.
    EXPECT_EQ(lab(labels[0], LabelScheme::CoOccurrence), 20u);
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

}  // namespace
}  // namespace voyager::core
