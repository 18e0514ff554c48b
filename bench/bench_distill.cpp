/**
 * @file
 * bench_distill — tabularized serving frontier (DESIGN.md §5.18).
 * Trains one scaled Voyager on a bounded prefix (the bench_serve
 * recipe), replays the teacher's token candidates over the training
 * stream, and compiles them into layered lookup tables at a sweep of
 * byte budgets × backoff depths. Each cell reports the accuracy-vs-
 * bytes frontier point (unified accuracy of the table-with-neural-
 * fallback path vs the full teacher) plus measured us/sample for the
 * mixed path and for pure table probes, next to the fp32/int8 neural
 * baselines — the distilled analogue of bench_fig17's us/sample
 * columns. Everything lands in the closed `distill.*` namespace.
 *
 * Extra flags (on top of the common ones in bench/common.hpp):
 *   --distill_train_samples=N  training-sample cap (default 2000)
 *   --distill_degree=N         candidates per table entry (default 4)
 *   --distill_budgets=a,b,c    byte budgets (default 16384,65536,262144)
 *   --distill_backoffs=a,b     L2 history lengths (default 1,2)
 *   --distill_l1_history=N     L1 history length (default 4)
 */
#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/decode.hpp"
#include "core/metrics.hpp"
#include "core/tabular.hpp"
#include "serve/predictor.hpp"
#include "serve/tabular_predictor.hpp"

namespace {

using namespace voyager;

/** Seconds of wall clock around `fn()`. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::BenchContext ctx(argc, argv, "distill");
    ctx.print_banner(std::cout,
                     "Tabularized serving frontier (DESIGN.md §5.18)");

    const auto benches = ctx.benchmarks({"bfs"});
    const std::string benchmark =
        benches.empty() ? std::string("bfs") : benches.front();
    const auto &stream = ctx.get_stream(benchmark);

    const std::size_t train_cap =
        ctx.raw().get_uint("distill_train_samples", 2000);
    const auto degree = static_cast<std::uint32_t>(
        ctx.raw().get_uint("distill_degree", 4));
    const std::size_t l1_history =
        ctx.raw().get_uint("distill_l1_history", 4);
    std::vector<std::uint64_t> budgets;
    for (const auto &tok :
         split(ctx.raw().get_string("distill_budgets",
                                    "16384,65536,262144"),
               ','))
        budgets.push_back(std::stoull(tok));
    std::vector<std::size_t> backoffs;
    for (const auto &tok : split(
             ctx.raw().get_string("distill_backoffs", "1,2"), ','))
        backoffs.push_back(std::stoul(tok));

    // Teacher training: the bench_serve recipe — bounded prefix, two
    // cumulative epochs, frozen weights afterwards.
    core::VoyagerConfig vc =
        ctx.voyager_config(bench::VoyagerVariant{});
    core::VoyagerAdapter adapter(vc, stream);
    core::OnlineTrainConfig tc = ctx.train_config(degree);
    tc.epochs = 2;
    tc.train_passes = 1;
    tc.max_train_samples_per_epoch = train_cap;
    tc.cumulative = true;
    const std::size_t train_n =
        std::min(stream.size(), 2 * std::max<std::size_t>(
                                        train_cap, vc.seq_len * 4));
    std::cout << "training on " << train_n << " of " << stream.size()
              << " accesses (cap " << train_cap << ")...\n";
    core::train_online(adapter, train_n, tc);

    // The distillation stream: every index of the training prefix
    // with enough history. Candidates are over-fetched so the decode
    // step can skip OOV/duplicates, mirroring predict_on.
    std::vector<std::size_t> eval(train_n - adapter.min_index());
    std::iota(eval.begin(), eval.end(), adapter.min_index());
    const std::size_t k = degree + core::kDecodeOverFetch;

    std::vector<std::vector<core::TokenPrediction>> teacher;
    const double fp32_secs = timed([&] {
        teacher = adapter.predict_token_candidates(eval, k);
    });
    adapter.enable_int8_inference();
    std::vector<std::vector<core::TokenPrediction>> int8_preds;
    const double int8_secs = timed([&] {
        int8_preds = adapter.predict_token_candidates(eval, k);
    });
    adapter.disable_int8_inference();

    const double us = 1e6 / static_cast<double>(eval.size());
    const double fp32_us = fp32_secs * us;
    const double int8_us = int8_secs * us;

    // predict_on's decode step (core::decode_candidates). Output is
    // indexed by stream position and sized to the training prefix so
    // the unified metric scores exactly the distillation stream.
    const auto decode_all =
        [&](const std::vector<std::vector<core::TokenPrediction>>
                &cands) {
            std::vector<std::vector<Addr>> out(train_n);
            for (std::size_t j = 0; j < eval.size(); ++j) {
                const Addr prev = stream[eval[j]].line;
                core::decode_candidates(
                    cands[j], degree,
                    [&](const core::TokenPrediction &p) {
                        return adapter.vocab().decode(p.page, p.offset,
                                                      prev);
                    },
                    out[eval[j]]);
            }
            return out;
        };

    const double teacher_unified =
        core::unified_accuracy_coverage(stream, decode_all(teacher),
                                        adapter.min_index(),
                                        bench::kUnifiedHorizon)
            .value();
    const double int8_unified =
        core::unified_accuracy_coverage(
            stream, decode_all(int8_preds), adapter.min_index(),
            bench::kUnifiedHorizon)
            .value();

    ctx.stats().counter("distill.eval_samples") = eval.size();
    ctx.stats().gauge("distill.teacher.unified") = teacher_unified;
    ctx.stats().gauge("distill.teacher.int8_unified") = int8_unified;
    ctx.stats().gauge("distill.fp32_us_per_sample",
                      /*volatile_stat=*/true) = fp32_us;
    ctx.stats().gauge("distill.int8_us_per_sample",
                      /*volatile_stat=*/true) = int8_us;

    std::cout << "teacher: unified " << pct(teacher_unified)
              << " (int8 " << pct(int8_unified) << "), fp32 "
              << strfmt("%.1f", fp32_us) << " vs int8 "
              << strfmt("%.1f us/sample", int8_us) << " over "
              << eval.size() << " samples\n\n";

    // Packs a chunk of eval windows exactly like fill_histories.
    const std::size_t T = vc.seq_len;
    const auto &enc = adapter.encoded();
    core::VoyagerBatch batch;
    const auto fill_batch = [&](const std::size_t *idx,
                                std::size_t rows) {
        batch.batch = rows;
        batch.seq = T;
        batch.pc.resize(rows * T);
        batch.page.resize(rows * T);
        batch.offset.resize(rows * T);
        for (std::size_t b = 0; b < rows; ++b) {
            const std::size_t start = idx[b] + 1 - T;
            for (std::size_t t = 0; t < T; ++t) {
                batch.pc[b * T + t] = enc.pc[start + t];
                batch.page[b * T + t] = enc.page[start + t];
                batch.offset[b * T + t] = enc.offset[start + t];
            }
        }
    };

    Table t({"budget", "backoff", "entries", "bytes", "hit_rate",
             "unified", "table_unified", "mixed us/smp",
             "table us/smp", "speedup_vs_int8"});
    double best_speedup = 0.0;
    double best_unified = 0.0;
    std::uint64_t best_budget = 0;
    for (const std::uint64_t budget : budgets) {
        for (const std::size_t backoff : backoffs) {
            core::TabularConfig cfg;
            cfg.l1_history = l1_history;
            cfg.l2_history = backoff;
            cfg.degree = degree;
            cfg.budget_bytes = budget;
            const auto table = core::distill_to_table(
                enc, eval, teacher, T, cfg);

            // Mixed path: the TabularPredictor serving loop — table
            // probes with the batched fp32 fallback — in batches of
            // 64, timed end to end (pack + probe + fallback).
            serve::AdapterPredictor neural(adapter);
            serve::TabularPredictor tabular(table, neural);
            std::vector<std::vector<core::TokenPrediction>> mixed(
                eval.size());
            const double mixed_secs = timed([&] {
                constexpr std::size_t kServeBatch = 64;
                for (std::size_t pos = 0; pos < eval.size();
                     pos += kServeBatch) {
                    const std::size_t rows = std::min(
                        kServeBatch, eval.size() - pos);
                    fill_batch(eval.data() + pos, rows);
                    auto preds = tabular.predict_tokens(batch, k);
                    for (std::size_t b = 0; b < rows; ++b)
                        mixed[pos + b] = std::move(preds[b]);
                }
            });

            // Steady-state path: pure table probes, no fallback.
            // Collected per index so the fallback-free accuracy (a
            // miss predicts nothing) lands on the frontier too.
            std::uint64_t l1_hits = 0;
            std::uint64_t l2_hits = 0;
            std::vector<std::vector<core::TokenPrediction>>
                table_only(eval.size());
            std::vector<core::TokenPrediction> probe_out;
            const double table_secs = timed([&] {
                for (std::size_t j = 0; j < eval.size(); ++j) {
                    const std::size_t i = eval[j];
                    const auto lvl = table.probe(
                        enc.pc[i], enc.page.data() + i + 1 - T,
                        enc.offset.data() + i + 1 - T, T, probe_out);
                    if (lvl == core::TabularTable::ProbeLevel::L1)
                        ++l1_hits;
                    else if (lvl ==
                             core::TabularTable::ProbeLevel::L2)
                        ++l2_hits;
                    table_only[j] = probe_out;
                }
            });

            const std::uint64_t hits = l1_hits + l2_hits;
            const std::uint64_t misses = eval.size() - hits;
            const double hit_rate =
                static_cast<double>(hits) /
                static_cast<double>(eval.size());
            const double unified =
                core::unified_accuracy_coverage(
                    stream, decode_all(mixed), adapter.min_index(),
                    bench::kUnifiedHorizon)
                    .value();
            const double table_unified =
                core::unified_accuracy_coverage(
                    stream, decode_all(table_only),
                    adapter.min_index(), bench::kUnifiedHorizon)
                    .value();
            const double mixed_us = mixed_secs * us;
            const double table_us = table_secs * us;
            const double speedup =
                mixed_us > 0.0 ? int8_us / mixed_us : 0.0;
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_unified = unified;
                best_budget = budget;
            }

            t.add_row(human_bytes(budget) + " h" +
                          std::to_string(backoff),
                      {static_cast<double>(backoff),
                       static_cast<double>(table.l1_entries() +
                                           table.l2_entries()),
                       static_cast<double>(table.storage_bytes()),
                       hit_rate, unified, table_unified, mixed_us,
                       table_us, speedup},
                      4);

            const std::string p =
                "distill.frontier.b" + std::to_string(budget) +
                "_h" + std::to_string(backoff);
            ctx.stats().counter(p + ".budget_bytes") = budget;
            ctx.stats().counter(p + ".bytes") = table.storage_bytes();
            ctx.stats().counter(p + ".l1_entries") =
                table.l1_entries();
            ctx.stats().counter(p + ".l2_entries") =
                table.l2_entries();
            ctx.stats().counter(p + ".l1_hits") = l1_hits;
            ctx.stats().counter(p + ".l2_hits") = l2_hits;
            ctx.stats().counter(p + ".misses") = misses;
            ctx.stats().gauge(p + ".hit_rate") = hit_rate;
            ctx.stats().gauge(p + ".unified") = unified;
            ctx.stats().gauge(p + ".table_unified") = table_unified;
            ctx.stats().gauge(p + ".us_per_sample",
                              /*volatile_stat=*/true) = mixed_us;
            ctx.stats().gauge(p + ".table_us_per_sample",
                              /*volatile_stat=*/true) = table_us;
            ctx.stats().gauge(p + ".speedup_vs_int8",
                              /*volatile_stat=*/true) = speedup;
        }
    }
    t.print(std::cout);

    ctx.stats().gauge("distill.best.speedup_vs_int8",
                      /*volatile_stat=*/true) = best_speedup;
    ctx.stats().gauge("distill.best.unified",
                      /*volatile_stat=*/true) = best_unified;
    ctx.stats().counter("distill.best.budget_bytes",
                        /*volatile_stat=*/true) = best_budget;

    std::cout << "\nbest cell: " << human_bytes(best_budget)
              << " budget, " << strfmt("%.1fx", best_speedup)
              << " vs int8, unified " << pct(best_unified) << " (vs "
              << pct(teacher_unified)
              << " teacher)\npaper shape: steady-state table probes "
                 "undercut the int8 forward by orders of magnitude "
                 "while the budgeted tables hold accuracy within a "
                 "few points of the full model.\n";
    return ctx.exit_code();
}
