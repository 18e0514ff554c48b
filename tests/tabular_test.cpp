/**
 * @file
 * Unit tests for the tabularized serving tables (DESIGN.md §5.18):
 * layered L1/L2 probes, rank-weighted voting, the strict byte budget,
 * CLOCK frequency-aging eviction, and the TabularPredictor's
 * miss/drift fallback routing over the deterministic StubPredictor.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/tabular.hpp"
#include "distill_fixture.hpp"
#include "serve_fixture.hpp"
#include "util/stat_registry.hpp"

namespace voyager {
namespace {

using core::TabularConfig;
using core::TabularTable;
using core::TokenPrediction;

/** Teacher list (page, offset) pairs in rank order. */
std::vector<TokenPrediction>
cands(std::initializer_list<std::pair<int, int>> list)
{
    std::vector<TokenPrediction> out;
    for (const auto &[page, offset] : list)
        out.push_back({page, offset, 0.0f});
    return out;
}

TEST(TabularUnit, BudgetSplitsLevelsUnderStrictByteModel)
{
    TabularConfig cfg;
    cfg.degree = 4;
    cfg.budget_bytes = 4800;
    cfg.l2_budget_fraction = 0.25;
    TabularTable t(cfg);
    EXPECT_EQ(t.entry_bytes(), 16u + 8u * 4u);
    // 25% of 4800 = 1200 -> 25 L2 entries; the remaining 3600 -> 75.
    EXPECT_EQ(t.l1_capacity(), 75u);
    EXPECT_EQ(t.l2_capacity(), 25u);
    EXPECT_EQ(t.storage_bytes(), 0u);
}

TEST(TabularUnit, ObserveProbeRoundTripRanksTeacherTop1First)
{
    TabularConfig cfg;
    cfg.l1_history = 3;
    cfg.l2_history = 1;
    cfg.degree = 2;
    TabularTable t(cfg);
    const std::int32_t page[] = {5, 6, 7};
    const std::int32_t offset[] = {1, 2, 3};
    t.observe(9, page, offset, 3, cands({{40, 0}, {41, 1}, {42, 2}}));

    std::vector<TokenPrediction> out;
    EXPECT_EQ(t.probe(9, page, offset, 3, out),
              TabularTable::ProbeLevel::L1);
    ASSERT_EQ(out.size(), 2u);  // degree caps the slots
    EXPECT_EQ(out[0].page, 40);
    EXPECT_EQ(out[0].offset, 0);
    EXPECT_EQ(out[1].page, 41);
    EXPECT_EQ(out[1].offset, 1);

    // A different PC is a different context.
    EXPECT_EQ(t.probe(8, page, offset, 3, out),
              TabularTable::ProbeLevel::Miss);
    EXPECT_TRUE(out.empty());
}

TEST(TabularUnit, VotesAccumulateAcrossObservations)
{
    TabularConfig cfg;
    cfg.l1_history = 2;
    cfg.l2_history = 1;
    cfg.degree = 2;
    TabularTable t(cfg);
    const std::int32_t page[] = {1, 2};
    const std::int32_t offset[] = {0, 0};
    // Rank-0 vote for (50,0) once, then twice for (60,1): the summed
    // weight must promote (60,1) to the top slot.
    t.observe(7, page, offset, 2, cands({{50, 0}, {60, 1}}));
    t.observe(7, page, offset, 2, cands({{60, 1}, {50, 0}}));
    t.observe(7, page, offset, 2, cands({{60, 1}, {50, 0}}));

    std::vector<TokenPrediction> out;
    ASSERT_EQ(t.probe(7, page, offset, 2, out),
              TabularTable::ProbeLevel::L1);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].page, 60);
    EXPECT_EQ(out[1].page, 50);
}

TEST(TabularUnit, BackoffLevelAnswersWhenOnlyTheSuffixMatches)
{
    TabularConfig cfg;
    cfg.l1_history = 3;
    cfg.l2_history = 1;
    cfg.degree = 2;
    TabularTable t(cfg);
    const std::int32_t page[] = {5, 6, 7};
    const std::int32_t offset[] = {1, 2, 3};
    t.observe(9, page, offset, 3, cands({{40, 0}, {41, 1}}));

    // Same newest (page, offset) pair and PC, different older
    // history: the exact L1 context misses, the 1-deep backoff hits.
    const std::int32_t page2[] = {8, 9, 7};
    const std::int32_t offset2[] = {4, 5, 3};
    std::vector<TokenPrediction> out;
    EXPECT_EQ(t.probe(9, page2, offset2, 3, out),
              TabularTable::ProbeLevel::L2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].page, 40);

    // Different newest pair: both levels miss.
    const std::int32_t page3[] = {5, 6, 9};
    EXPECT_EQ(t.probe(9, page3, offset, 3, out),
              TabularTable::ProbeLevel::Miss);
}

TEST(TabularUnit, StrictBudgetHoldsUnderChurn)
{
    TabularConfig cfg;
    cfg.l1_history = 1;  // disables L2 (no shorter history exists)
    cfg.degree = 2;
    cfg.budget_bytes = 8 * (16 + 8 * 2);
    TabularTable t(cfg);
    EXPECT_EQ(t.l2_capacity(), 0u);
    for (std::int32_t i = 0; i < 1000; ++i) {
        const std::int32_t page[] = {i};
        const std::int32_t offset[] = {i % 7};
        t.observe(3, page, offset, 1, cands({{i, 0}}));
    }
    EXPECT_LE(t.l1_entries(), 8u);
    EXPECT_LE(t.storage_bytes(), cfg.budget_bytes);
    EXPECT_EQ(t.observations(), 1000u);
}

TEST(TabularUnit, ClockEvictionKeepsFrequentContexts)
{
    TabularConfig cfg;
    cfg.l1_history = 1;
    cfg.degree = 1;
    cfg.budget_bytes = 2 * (16 + 8 * 1);  // two L1 entries
    TabularTable t(cfg);
    ASSERT_EQ(t.l1_capacity(), 2u);
    const std::int32_t off0[] = {0};
    const std::int32_t pa[] = {100};
    const std::int32_t pb[] = {200};
    const std::int32_t pc_[] = {300};
    // A becomes hot, B is a one-shot; admitting C must age A (5 -> 2)
    // but evict B (1 -> 0).
    for (int i = 0; i < 5; ++i)
        t.observe(1, pa, off0, 1, cands({{10, 0}}));
    t.observe(1, pb, off0, 1, cands({{20, 0}}));
    t.observe(1, pc_, off0, 1, cands({{30, 0}}));

    std::vector<TokenPrediction> out;
    EXPECT_EQ(t.probe(1, pa, off0, 1, out),
              TabularTable::ProbeLevel::L1);
    EXPECT_EQ(t.probe(1, pb, off0, 1, out),
              TabularTable::ProbeLevel::Miss);
    EXPECT_EQ(t.probe(1, pc_, off0, 1, out),
              TabularTable::ProbeLevel::L1);

    StatRegistry reg;
    t.export_stats(reg);
    EXPECT_EQ(reg.counter("distill.table.l1_admits"), 3u);
    EXPECT_EQ(reg.counter("distill.table.l1_evictions"), 1u);
    EXPECT_EQ(reg.counter("distill.table.l1_entries"), 2u);
}

TEST(TabularUnit, StorageModelCountsAdmittedEntriesOnly)
{
    TabularConfig cfg;
    cfg.l1_history = 2;
    cfg.l2_history = 1;
    cfg.degree = 4;
    TabularTable t(cfg);
    const std::int32_t page[] = {1, 2};
    const std::int32_t offset[] = {0, 0};
    t.observe(7, page, offset, 2, cands({{50, 0}}));
    // One observation lands one entry per level.
    EXPECT_EQ(t.l1_entries(), 1u);
    EXPECT_EQ(t.l2_entries(), 1u);
    EXPECT_EQ(t.storage_bytes(), 2 * t.entry_bytes());
}

TEST(TabularUnit, DistillToTableMatchesManualObservation)
{
    const auto stream = serve_test::serve_cyclic_stream(120, 10, 3);
    const auto vocab = core::Vocabulary::build(stream);
    const auto enc = core::encode_stream(stream, vocab);
    std::vector<std::size_t> indices;
    for (std::size_t i = 3; i < enc.size(); ++i)
        indices.push_back(i);
    const auto teacher = distill_test::stub_teacher(enc, indices, 3);

    TabularConfig cfg;
    cfg.l1_history = 4;
    cfg.l2_history = 1;
    cfg.degree = 2;
    const auto compiled =
        core::distill_to_table(enc, indices, teacher, 4, cfg);
    TabularTable manual(cfg);
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        manual.observe(enc.pc[i], enc.page.data() + i - 3,
                       enc.offset.data() + i - 3, 4, teacher[j]);
    }
    EXPECT_EQ(compiled.l1_entries(), manual.l1_entries());
    EXPECT_EQ(compiled.l2_entries(), manual.l2_entries());
    EXPECT_EQ(compiled.storage_bytes(), manual.storage_bytes());
    EXPECT_EQ(compiled.observations(), manual.observations());

    std::vector<TokenPrediction> a;
    std::vector<TokenPrediction> b;
    for (const std::size_t i : indices) {
        const auto la = compiled.probe(enc.pc[i],
                                       enc.page.data() + i - 3,
                                       enc.offset.data() + i - 3, 4,
                                       a);
        const auto lb = manual.probe(enc.pc[i],
                                     enc.page.data() + i - 3,
                                     enc.offset.data() + i - 3, 4, b);
        EXPECT_EQ(la, lb);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(a[s].page, b[s].page);
            EXPECT_EQ(a[s].offset, b[s].offset);
        }
    }
}

/** One-row batch over a token window, StubPredictor-compatible. */
core::VoyagerBatch
one_row(const std::vector<std::int32_t> &page,
        const std::vector<std::int32_t> &offset, std::int32_t pc)
{
    core::VoyagerBatch b;
    b.batch = 1;
    b.seq = page.size();
    b.page = page;
    b.offset = offset;
    b.pc.assign(page.size(), 0);
    b.pc.back() = pc;
    return b;
}

TEST(TabularPredictorUnit, MissRoutesToFallbackVerbatim)
{
    TabularConfig cfg;
    cfg.l1_history = 4;
    cfg.budget_bytes = 0;  // nothing can be admitted
    TabularTable table(cfg);
    serve_test::StubPredictor stub(4);
    serve::TabularPredictor pred(table, stub);

    const auto batch = one_row({3, 4, 5, 6}, {0, 1, 2, 3}, 9);
    const auto got = pred.predict_tokens(batch, 3);
    const auto want = stub.predict_tokens(batch, 3);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].size(), want[0].size());
    for (std::size_t j = 0; j < want[0].size(); ++j) {
        EXPECT_EQ(got[0][j].page, want[0][j].page);
        EXPECT_EQ(got[0][j].offset, want[0][j].offset);
        EXPECT_EQ(got[0][j].prob, want[0][j].prob);
    }

    StatRegistry reg;
    pred.export_stats(reg);
    EXPECT_EQ(reg.counter("distill.serve.misses"), 1u);
    EXPECT_EQ(reg.counter("distill.serve.fallback_rows"), 1u);
    EXPECT_EQ(reg.counter("distill.serve.fallback_batches"), 1u);
}

TEST(TabularPredictorUnit, WarmRowServedFromTableColdFromFallback)
{
    TabularConfig cfg;
    cfg.l1_history = 4;
    cfg.l2_history = 1;
    cfg.degree = 2;
    TabularTable table(cfg);
    const std::int32_t page[] = {3, 4, 5, 6};
    const std::int32_t offset[] = {0, 1, 2, 3};
    table.observe(9, page, offset, 4,
                  cands({{40, 0}, {41, 1}, {42, 2}}));

    serve_test::StubPredictor stub(4);
    serve::TabularPredictor pred(table, stub);

    core::VoyagerBatch batch;
    batch.batch = 2;
    batch.seq = 4;
    batch.page = {3, 4, 5, 6, /* cold: */ 7, 7, 7, 8};
    batch.offset = {0, 1, 2, 3, /* cold: */ 0, 0, 0, 0};
    batch.pc = {0, 0, 0, 9, 0, 0, 0, 9};
    const auto got = pred.predict_tokens(batch, 2);
    ASSERT_EQ(got.size(), 2u);
    // Warm row: table candidates in rank order.
    ASSERT_EQ(got[0].size(), 2u);
    EXPECT_EQ(got[0][0].page, 40);
    EXPECT_EQ(got[0][1].page, 41);
    // Cold row: the stub's rule (page = newest page token).
    ASSERT_EQ(got[1].size(), 2u);
    EXPECT_EQ(got[1][0].page, 8);
    EXPECT_EQ(got[1][0].offset, 0);

    StatRegistry reg;
    pred.export_stats(reg);
    EXPECT_EQ(reg.counter("distill.serve.l1_hits"), 1u);
    EXPECT_EQ(reg.counter("distill.serve.misses"), 1u);
    EXPECT_EQ(reg.counter("distill.serve.fallback_rows"), 1u);
}

TEST(TabularPredictorUnit, DriftWindowForcesNeuralThenRecovers)
{
    TabularConfig cfg;
    cfg.l1_history = 4;
    cfg.budget_bytes = 0;
    TabularTable table(cfg);
    serve_test::StubPredictor stub(4);
    serve::TabularServeConfig tsc;
    tsc.drift_window = 4;
    tsc.min_hit_rate = 0.5;
    serve::TabularPredictor pred(table, stub, tsc);

    const auto batch = one_row({3, 4, 5, 6}, {0, 1, 2, 3}, 9);
    // 4 probed misses fill the window and trip the drift fallback;
    // the next 4 rows must not probe at all; the window after that
    // probes again.
    for (int i = 0; i < 12; ++i)
        pred.predict_tokens_for(batch, 2, {7});

    StatRegistry reg;
    pred.export_stats(reg);
    EXPECT_EQ(reg.counter("distill.serve.probes"), 8u);
    EXPECT_EQ(reg.counter("distill.serve.drift_rows"), 4u);
    EXPECT_EQ(reg.counter("distill.serve.drift_events"), 2u);
    EXPECT_EQ(reg.counter("distill.serve.fallback_rows"), 12u);
    EXPECT_EQ(reg.counter("distill.serve.tenants"), 1u);
}

}  // namespace
}  // namespace voyager
