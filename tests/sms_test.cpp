/**
 * @file
 * Tests for the SMS spatial prefetcher.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch/registry.hpp"
#include "prefetch/sms.hpp"
#include "reference.hpp"

namespace voyager {
namespace {

sim::LlcAccess
acc(Addr pc, Addr line)
{
    sim::LlcAccess a;
    a.pc = pc;
    a.line = line;
    a.is_load = true;
    return a;
}

/**
 * Age out every open generation: fill the active table past its
 * 64-generation cap with fresh regions (PC 1, far from the regions the
 * tests use) for longer than the 256-access generation timeout.
 */
void
age_out(prefetch::Sms &sms)
{
    for (Addr i = 0; i < 400; ++i)
        sms.on_access(acc(1, 64 * (1000 + i % 100) + i / 100));
}

TEST(Sms, ReplaysLearnedFootprint)
{
    prefetch::Sms sms(8);

    // Generation 1 in region 0: trigger at offset 3 by PC 9, then
    // touch offsets 5 and 7.
    sms.on_access(acc(9, 3));
    sms.on_access(acc(9, 5));
    sms.on_access(acc(9, 7));
    EXPECT_EQ(sms.patterns_learned(), 0u);
    age_out(sms);
    EXPECT_GE(sms.patterns_learned(), 1u);

    // New region with the same (PC, trigger-offset) signature: the
    // learned footprint replays at the new base.
    const Addr new_region_base = 64 * 40;
    const auto preds = sms.on_access(acc(9, new_region_base + 3));
    EXPECT_NE(std::find(preds.begin(), preds.end(),
                        new_region_base + 5),
              preds.end());
    EXPECT_NE(std::find(preds.begin(), preds.end(),
                        new_region_base + 7),
              preds.end());
}

TEST(Sms, NoPredictionForUnknownSignature)
{
    prefetch::Sms sms;
    const auto preds = sms.on_access(acc(1, 1000));
    EXPECT_TRUE(preds.empty());
}

TEST(Sms, DegreeCapsFootprintReplay)
{
    prefetch::Sms sms(2);
    // Learn a 6-line footprint.
    for (Addr o : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull})
        sms.on_access(acc(7, o));
    age_out(sms);
    ASSERT_GE(sms.patterns_learned(), 1u);
    const auto preds = sms.on_access(acc(7, 64 * 20));
    EXPECT_EQ(preds.size(), 2u);
}

TEST(Sms, InRegistry)
{
    auto p = prefetch::make_prefetcher("sms", 4);
    EXPECT_EQ(p->name(), "sms");
    const auto &names = prefetch::rule_based_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "sms"),
              names.end());
}

}  // namespace
}  // namespace voyager
