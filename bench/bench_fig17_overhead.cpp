/**
 * @file
 * Fig. 17 and §5.4 — model compression and overhead. Reports, per
 * benchmark and on average:
 *   - unified accuracy/coverage (the "accuracy" axis),
 *   - IPC speedup over no prefetching (the "speedup" axis; SPEC/GAP),
 *   - storage: Voyager dense fp32, pruned (80%) fp32, pruned+int8,
 *     Delta-LSTM dense, and conventional temporal-prefetcher metadata,
 *   - the paper's storage-efficiency score 1/(1+log10(storage)),
 *   - measured training/inference time per sample (the 15-20x
 *     training-cost argument reduces to parameter ratio here),
 *   - the footprint of the model distilled into budgeted lookup
 *     tables (§5.5, the same tables bench_serve serves from).
 */
#include <chrono>
#include <cmath>
#include <iostream>
#include <numeric>
#include <unordered_set>

#include "common.hpp"
#include "core/compress.hpp"
#include "core/decode.hpp"
#include "core/tabular.hpp"
#include "prefetch/isb.hpp"
#include "prefetch/stms.hpp"

int
main(int argc, char **argv)
{
    using namespace voyager;
    bench::BenchContext ctx(argc, argv, "fig17");
    ctx.print_banner(std::cout,
                     "Overhead & compression (paper Fig. 17, §5.4)");

    const auto benchmarks = ctx.benchmarks({"pr", "mcf"});

    Table t({"benchmark", "voyager acc/cov", "int8 acc/cov",
             "voyager speedup", "fp32 us/smp", "int8 us/smp",
             "voyager fp32", "pruned fp32", "pruned int8",
             "delta_lstm fp32", "temporal tables"});
    double sum_eff_voyager = 0.0;
    double sum_eff_isb = 0.0;
    double sum_eff_dl = 0.0;
    for (const auto &name : benchmarks) {
        const auto &stream = ctx.get_stream(name);
        // Train a fresh model (not cached) so we can compress it.
        core::VoyagerAdapter adapter(ctx.voyager_config({}), stream);
        auto res = core::train_online(adapter, stream.size(),
                                      ctx.train_config(1));
        const double acc =
            ctx.unified(name, res.predictions,
                        res.first_predicted_index)
                .value();
        const auto base = ctx.run_baseline(name);
        const double speedup =
            ctx.run_replay(name, "voyager", res.predictions)
                .speedup_over(base);

        const auto rep = core::compress_model(adapter.model(), {});

        // Post-compress inference comparison: the pruned+quantized
        // weights run once through the fp32 path and once through the
        // int8 engine (DESIGN.md §5.13), over the same eval slice —
        // so the int8 acc/cov and us/sample columns measure the int8
        // kernels actually executing, not a projection.
        std::vector<std::size_t> eval(
            stream.size() - res.first_predicted_index);
        std::iota(eval.begin(), eval.end(),
                  res.first_predicted_index);
        const auto timed_predict = [&adapter, &eval] {
            const auto t0 = std::chrono::steady_clock::now();
            auto preds = adapter.predict_on(eval, 1);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            return std::make_pair(std::move(preds), secs);
        };
        const auto scatter =
            [&stream, &eval](std::vector<std::vector<Addr>> preds) {
                std::vector<std::vector<Addr>> out(stream.size());
                for (std::size_t i = 0; i < eval.size(); ++i)
                    out[eval[i]] = std::move(preds[i]);
                return out;
            };
        auto [fp32_preds, fp32_secs] = timed_predict();
        adapter.enable_int8_inference();
        auto [int8_preds, int8_secs] = timed_predict();
        const auto [scale_min, scale_max] =
            adapter.int8_model()->weight_scale_range();
        const auto int8_bytes = adapter.int8_model()->int8_bytes();
        adapter.disable_int8_inference();
        const double fp32_acc =
            ctx.unified(name, scatter(std::move(fp32_preds)),
                        res.first_predicted_index)
                .value();
        const double int8_acc =
            ctx.unified(name, scatter(std::move(int8_preds)),
                        res.first_predicted_index)
                .value();
        const double us = 1e6 / static_cast<double>(eval.size());
        const double fp32_us = fp32_secs * us;
        const double int8_us = int8_secs * us;

        std::unordered_set<Addr> lines;
        for (const auto &a : stream)
            lines.insert(a.line);
        const auto temporal = core::temporal_prefetcher_bytes(
            lines.size());
        const auto dl_bytes = ctx.delta_lstm_bytes(name);

        t.add_row({name, pct(acc), pct(int8_acc), pct(speedup),
                   strfmt("%.1f", fp32_us), strfmt("%.1f", int8_us),
                   human_bytes(rep.dense_fp32_bytes),
                   human_bytes(rep.pruned_fp32_bytes),
                   human_bytes(rep.pruned_int8_bytes),
                   human_bytes(dl_bytes), human_bytes(temporal)});

        const std::string p = "fig17." + stat_name_segment(name);
        ctx.stats().gauge(p + ".unified") = acc;
        ctx.stats().gauge(p + ".speedup") = speedup;
        ctx.stats().gauge(p + ".sparsity") = rep.sparsity;
        ctx.stats().counter(p + ".dense_fp32_bytes") =
            rep.dense_fp32_bytes;
        ctx.stats().counter(p + ".pruned_fp32_bytes") =
            rep.pruned_fp32_bytes;
        ctx.stats().counter(p + ".pruned_int8_bytes") =
            rep.pruned_int8_bytes;
        ctx.stats().counter(p + ".delta_lstm_bytes") = dl_bytes;
        ctx.stats().counter(p + ".temporal_table_bytes") = temporal;

        // Measured flat-table footprint (DESIGN.md §5.15): run the
        // temporal baselines over the stream and read the bytes their
        // flat hash tables actually hold, next to the idealized
        // per-entry storage model that feeds the golden-pinned
        // storage_bytes() accounting above.
        prefetch::Isb isb_pf;
        prefetch::Stms stms_pf;
        for (const auto &a : stream) {
            isb_pf.on_access(a);
            stms_pf.on_access(a);
        }
        ctx.stats().counter(p + ".isb_table_bytes") =
            isb_pf.table_bytes();
        ctx.stats().counter(p + ".stms_table_bytes") =
            stms_pf.table_bytes();

        // The §5.5 practical prefetcher: distill the compressed fp32
        // model's degree-1 token candidates over the eval slice into
        // the budgeted L1/L2 tables the serving path probes (DESIGN.md
        // §5.18; bench_distill scores the tables alone as
        // distill.frontier.*.table_unified). distilled_table_bytes is
        // those tables' modeled footprint under the default 256 KiB
        // budget, next to the temporal-metadata tables; no golden
        // pins it.
        core::TabularConfig tab_cfg;
        tab_cfg.degree = 1;
        const auto table = core::distill_to_table(
            adapter.encoded(), eval,
            adapter.predict_token_candidates(
                eval, tab_cfg.degree + core::kDecodeOverFetch),
            adapter.model().config().seq_len, tab_cfg);
        ctx.stats().counter(p + ".distilled_table_bytes") =
            table.storage_bytes();
        std::cout << "  metadata tables: isb "
                  << human_bytes(isb_pf.storage_bytes()) << " model / "
                  << human_bytes(isb_pf.table_bytes())
                  << " flat, stms "
                  << human_bytes(stms_pf.storage_bytes())
                  << " model / " << human_bytes(stms_pf.table_bytes())
                  << " flat, distilled "
                  << human_bytes(table.storage_bytes()) << " ("
                  << table.l1_entries() << " L1 + "
                  << table.l2_entries() << " L2 entries)\n";

        // Int8 engine stats (§5.13): quantization quality is
        // deterministic; the us/sample timings are wall-clock and so
        // registered volatile (excluded from golden documents).
        ctx.stats().gauge(p + ".compress.int8.scale_min") = scale_min;
        ctx.stats().gauge(p + ".compress.int8.scale_max") = scale_max;
        ctx.stats().gauge(p + ".compress.int8.max_error") =
            rep.max_quant_error;
        ctx.stats().gauge(p + ".compress.int8.rms_error") =
            rep.rms_quant_error;
        ctx.stats().gauge(p + ".compress.int8.unified") = int8_acc;
        ctx.stats().gauge(p + ".compress.int8.unified_fp32") =
            fp32_acc;
        ctx.stats().counter(p + ".compress.int8.bytes") = int8_bytes;
        ctx.stats().gauge(p + ".compress.int8.us_per_sample",
                          /*volatile_stat=*/true) = int8_us;
        ctx.stats().gauge(p + ".compress.int8.fp32_us_per_sample",
                          /*volatile_stat=*/true) = fp32_us;

        // Paper Fig. 17 footnote: efficiency = 1/(1+log10(storage)).
        // Storage counted in KiB and clamped to >= 1 so the score
        // stays in (0, 1] for the sub-MiB models of the small scale.
        auto eff = [](double bytes) {
            const double kib = std::max(1.0, bytes / 1024.0);
            return 1.0 / (1.0 + std::log10(kib));
        };
        sum_eff_voyager +=
            eff(static_cast<double>(rep.pruned_int8_bytes));
        sum_eff_isb += eff(static_cast<double>(temporal));
        sum_eff_dl += eff(static_cast<double>(dl_bytes));

        std::cout << name << ": sparsity=" << pct(rep.sparsity)
                  << " quant_err=" << rep.max_quant_error
                  << " compression="
                  << strfmt("%.1fx",
                            static_cast<double>(rep.dense_fp32_bytes) /
                                static_cast<double>(
                                    rep.pruned_int8_bytes))
                  << " train="
                  << strfmt("%.1f us/sample",
                            1e6 * res.train_seconds /
                                std::max<std::uint64_t>(
                                    1, res.trained_samples))
                  << " infer="
                  << strfmt("%.1f us/sample",
                            1e6 * res.inference_seconds /
                                std::max<std::uint64_t>(
                                    1, res.predicted_samples))
                  << "\n  int8 engine: fp32 "
                  << strfmt("%.1f", fp32_us) << " vs int8 "
                  << strfmt("%.1f us/sample", int8_us)
                  << strfmt(" (%.2fx)", fp32_us /
                                            std::max(1e-9, int8_us))
                  << ", acc/cov fp32 " << pct(fp32_acc) << " vs int8 "
                  << pct(int8_acc) << ", weight scales ["
                  << strfmt("%.2g", scale_min) << ", "
                  << strfmt("%.2g", scale_max) << "], rms err "
                  << strfmt("%.2g", rep.rms_quant_error) << "\n";
    }
    std::cout << "\n";
    t.print(std::cout);

    const auto n = static_cast<double>(benchmarks.size());
    ctx.stats().gauge("fig17.efficiency.voyager") = sum_eff_voyager / n;
    ctx.stats().gauge("fig17.efficiency.delta_lstm") = sum_eff_dl / n;
    ctx.stats().gauge("fig17.efficiency.temporal") = sum_eff_isb / n;
    std::cout << "\nstorage efficiency 1/(1+log10(KiB)): voyager "
              << strfmt("%.2f", sum_eff_voyager / n) << ", delta_lstm "
              << strfmt("%.2f", sum_eff_dl / n) << ", temporal tables "
              << strfmt("%.2f", sum_eff_isb / n)
              << "\npaper shape: pruned+int8 voyager beats delta_lstm "
                 "by 110-200x and undercuts temporal-prefetcher "
                 "metadata.\n";
    return ctx.exit_code();
}
