/**
 * @file
 * Cross-module integration tests: the full paper pipeline at tiny
 * scale — generate a workload, extract the LLC stream, train
 * prefetchers (rule-based and neural), replay them through the
 * simulator, and check the metrics move in the expected directions.
 */
#include <gtest/gtest.h>

#include "core/compress.hpp"
#include "core/decode.hpp"
#include "core/metrics.hpp"
#include "core/tabular.hpp"
#include "core/trainer.hpp"
#include "prefetch/registry.hpp"
#include "prefetch/stms.hpp"
#include "reference.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager {
namespace {

using core::unified_accuracy_coverage;
using sim::LlcAccess;
using trace::gen::Scale;

core::VoyagerConfig
small_voyager()
{
    core::VoyagerConfig cfg;
    cfg.seq_len = 8;
    cfg.pc_embed_dim = 8;
    cfg.page_embed_dim = 16;
    cfg.num_experts = 4;
    cfg.lstm_units = 32;
    cfg.batch_size = 32;
    cfg.learning_rate = 1e-2;
    cfg.lr_decay_ratio = 1.0;
    return cfg;
}

TEST(Integration, GapTraceThroughFullSimulator)
{
    const auto t = trace::gen::make_workload("pr", Scale::Tiny, 1);
    const auto cfg = sim::tiny_sim_config();
    sim::NullPrefetcher none;
    const auto base = simulate(t, cfg, none);
    EXPECT_GT(base.ipc, 0.0);
    EXPECT_GT(base.llc_accesses, 100u);

    auto isb = prefetch::make_prefetcher("isb", 1);
    const auto with_isb = simulate(t, cfg, *isb);
    EXPECT_GT(with_isb.prefetches_issued, 0u);
    // On the PageRank tour ISB should deliver real coverage.
    EXPECT_GT(with_isb.coverage, 0.1);
    EXPECT_GE(with_isb.ipc, base.ipc * 0.98);
}

TEST(Integration, OraclePrefetcherNearPerfect)
{
    const auto t = trace::gen::make_workload("bfs", Scale::Tiny, 2);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(t, cfg);
    ASSERT_GT(stream.size(), 200u);
    auto preds = prefetch::oracle_predictions(stream, 1);
    sim::ReplayPrefetcher oracle("oracle", std::move(preds));
    const auto r = simulate(t, cfg, oracle);
    EXPECT_GT(r.accuracy, 0.85);
    EXPECT_GT(r.coverage, 0.5);
}

TEST(Integration, VoyagerBeatsStmsOnInterleavedTour)
{
    // Two interleaved pointer tours destroy global pairwise
    // correlation (STMS) but stay learnable from history (Voyager)
    // and PC localization (labels).
    Rng rng(11);
    std::vector<Addr> tour_a(40);
    std::vector<Addr> tour_b(40);
    for (std::size_t i = 0; i < 40; ++i) {
        tour_a[i] = 0x100000 + rng.next_below(3000);
        tour_b[i] = 0x900000 + rng.next_below(3000);
    }
    std::vector<LlcAccess> stream;
    std::size_t ai = 0;
    std::size_t bi = 0;
    Rng mix(12);
    for (std::size_t i = 0; i < 2500; ++i) {
        LlcAccess a;
        a.index = i;
        a.is_load = true;
        if (mix.next_bool(0.5)) {
            a.pc = 0x400100;
            a.line = tour_a[ai++ % 40];
        } else {
            a.pc = 0x400200;
            a.line = tour_b[bi++ % 40];
        }
        stream.push_back(a);
    }

    // STMS on the same stream.
    prefetch::Stms stms(1);
    const auto stms_preds = core::run_prefetcher_on_stream(stms, stream);
    const auto stms_metric = unified_accuracy_coverage(
        stream, stms_preds, stream.size() / 2);

    core::VoyagerAdapter voyager(small_voyager(), stream);
    core::OnlineTrainConfig ocfg;
    ocfg.epochs = 4;
    ocfg.train_passes = 8;
    const auto res = train_online(voyager, stream.size(), ocfg);
    const auto v_metric = unified_accuracy_coverage(
        stream, res.predictions, stream.size() / 2);

    EXPECT_GT(v_metric.value(), stms_metric.value())
        << "voyager=" << v_metric.value()
        << " stms=" << stms_metric.value();
}

TEST(Integration, NeuralPredictionsDriveSimulatorIpc)
{
    // Train Voyager on the LLC stream of a repeating workload, replay
    // its predictions in the simulator, and expect an IPC gain over
    // no prefetching.
    const auto t = trace::gen::make_workload("pr", Scale::Tiny, 3);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(t, cfg);
    ASSERT_GT(stream.size(), 300u);

    core::VoyagerAdapter voyager(small_voyager(), stream);
    core::OnlineTrainConfig ocfg;
    ocfg.epochs = 3;
    ocfg.train_passes = 8;
    ocfg.max_train_samples_per_epoch = 1500;
    const auto res = train_online(voyager, stream.size(), ocfg);

    sim::NullPrefetcher none;
    const auto base = simulate(t, cfg, none);
    sim::ReplayPrefetcher replay("voyager", res.predictions,
                                 voyager.parameter_bytes());
    const auto with_nn = simulate(t, cfg, replay);
    EXPECT_GT(with_nn.prefetches_issued, 0u);
    EXPECT_GE(with_nn.ipc, base.ipc);
}

TEST(Integration, TabularPrefetcherTracksNeuralSource)
{
    // Train Voyager, distill its token candidates over the predicted
    // epochs into the serving tables, and verify that the tables alone
    // reproduce the neural predictions on the same stream (paper
    // §5.5's practical route, bench_distill's table-only path).
    const auto t = trace::gen::make_workload("pr", Scale::Tiny, 6);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(t, cfg);
    core::VoyagerAdapter voyager(small_voyager(), stream);
    core::OnlineTrainConfig ocfg;
    ocfg.epochs = 3;
    ocfg.train_passes = 4;
    ocfg.cumulative = true;
    ocfg.max_train_samples_per_epoch = 1500;
    const auto res = train_online(voyager, stream.size(), ocfg);

    std::vector<std::size_t> indices;
    for (std::size_t i = std::max(res.first_predicted_index,
                                  voyager.min_index());
         i < stream.size(); ++i)
        indices.push_back(i);
    core::TabularConfig tcfg;
    tcfg.degree = ocfg.degree;
    const std::size_t seq_len = small_voyager().seq_len;
    const auto &enc = voyager.encoded();
    const auto table = core::distill_to_table(
        enc, indices,
        voyager.predict_token_candidates(
            indices, tcfg.degree + core::kDecodeOverFetch),
        seq_len, tcfg);
    EXPECT_GT(table.l1_entries(), 10u);

    // Replay the tables over each access's trailing seq_len window: a
    // probe, then decode against the access's line. A miss predicts
    // nothing. The tables should recover a meaningful share of the
    // neural predictions.
    std::vector<std::vector<Addr>> table_preds(stream.size());
    std::vector<core::TokenPrediction> probed;
    for (std::size_t i = voyager.min_index(); i < stream.size(); ++i) {
        const std::size_t start = i + 1 - seq_len;
        table.probe(enc.pc[i], enc.page.data() + start,
                    enc.offset.data() + start, seq_len, probed);
        core::decode_candidates(
            probed, ocfg.degree,
            [&](const core::TokenPrediction &p) {
                return voyager.vocab().decode(p.page, p.offset,
                                              stream[i].line);
            },
            table_preds[i]);
    }
    const auto neural = unified_accuracy_coverage(
        stream, res.predictions, res.first_predicted_index);
    const auto replayed = unified_accuracy_coverage(
        stream, table_preds, res.first_predicted_index);
    if (neural.value() > 0.05) {
        EXPECT_GT(replayed.value(), neural.value() * 0.3);
    }
}

TEST(Integration, StorageComparisonVoyagerVsTemporal)
{
    const auto t = trace::gen::make_workload("mcf", Scale::Tiny, 5);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(t, cfg);
    std::unordered_set<Addr> lines;
    for (const auto &a : stream)
        lines.insert(a.line);
    const auto temporal_bytes =
        core::temporal_prefetcher_bytes(lines.size());
    EXPECT_GT(temporal_bytes, 0u);

    core::VoyagerAdapter voyager(small_voyager(), stream);
    // Dense fp32 model may exceed table storage at tiny scale; after
    // prune+quant it should be in the same ballpark or smaller.
    const auto rep = core::compress_model(voyager.model());
    EXPECT_GT(rep.sparsity, 0.25);
    EXPECT_LT(rep.pruned_fp32_bytes, rep.dense_fp32_bytes);
    EXPECT_LT(rep.pruned_int8_bytes, rep.dense_fp32_bytes / 4);
}

}  // namespace
}  // namespace voyager
