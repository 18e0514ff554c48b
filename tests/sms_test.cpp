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

TEST(Sms, ReplaysLearnedFootprint)
{
    prefetch::SmsConfig cfg;
    cfg.degree = 8;
    cfg.generation_timeout = 4;
    cfg.max_active = 2;  // force generation closes
    prefetch::Sms sms(cfg);

    // Generation 1 in region 0: trigger at offset 3 by PC 9, then
    // touch offsets 5 and 7.
    sms.on_access(acc(9, 3));
    sms.on_access(acc(9, 5));
    sms.on_access(acc(9, 7));
    // Touch two other regions to age out region 0's generation.
    for (int i = 0; i < 6; ++i) {
        sms.on_access(acc(1, 64 * 3 + static_cast<Addr>(i)));
        sms.on_access(acc(2, 64 * 5 + static_cast<Addr>(i)));
    }
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
    prefetch::SmsConfig cfg;
    cfg.degree = 2;
    cfg.generation_timeout = 2;
    cfg.max_active = 1;
    prefetch::Sms sms(cfg);
    // Learn a 6-line footprint.
    for (Addr o : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull})
        sms.on_access(acc(7, o));
    for (int i = 0; i < 8; ++i)
        sms.on_access(acc(1, 64 * 9 + static_cast<Addr>(i)));
    const auto preds = sms.on_access(acc(7, 64 * 20));
    EXPECT_LE(preds.size(), 2u);
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
