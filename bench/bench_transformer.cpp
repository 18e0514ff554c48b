/**
 * @file
 * Transformer-inference workload sweep (DESIGN.md §5.17): runs the
 * temporal/spatial baselines (ISB, STMS, BO), the StreamGroup
 * enhanced stream prefetcher and Voyager over the xf_prefill /
 * xf_decode / xf_mixed family, reporting simulator accuracy, coverage
 * and the measured prefetcher cost per LLC access.
 *
 * Exports two closed stat namespaces (declared in util/stat_schema.cpp):
 *   transformer.<workload>.<prefetcher>.{acc,cov,us_per_access}
 *   prefetch.stream_group.*   (StreamGroup internals, aggregated
 *                              over every workload in the run)
 */
#include <algorithm>
#include <chrono>
#include <iostream>

#include "common.hpp"
#include "prefetch/registry.hpp"
#include "prefetch/stream_group.hpp"

int
main(int argc, char **argv)
{
    using namespace voyager;
    bench::BenchContext ctx(argc, argv, "transformer");
    ctx.print_banner(std::cout,
                     "Transformer-inference sweep (DESIGN.md §5.17)");

    const auto benchmarks =
        ctx.benchmarks(trace::gen::transformer_benchmarks());
    const std::vector<std::string> rules = {"isb", "stms", "bo",
                                            "stream_group"};
    constexpr std::uint32_t kDegree = 4;

    // One StreamGroup instance accumulates every stream so its
    // internal counters land once in the closed
    // prefetch.stream_group.* namespace (per-workload copies also
    // appear under sim.<wl>.stream_group.d4 via run_rule).
    prefetch::StreamGroup aggregate;

    Table t({"benchmark", "prefetcher", "acc", "cov", "us/access"});
    for (const auto &name : benchmarks) {
        const auto &stream = ctx.get_stream(name);
        const std::string wl = stat_name_segment(name);
        for (const auto &rule : rules) {
            const auto r = ctx.run_rule(name, rule, kDegree);
            // Measured cost: a fresh instance over the raw stream
            // (outside the simulator, so the figure is the
            // prefetcher's own table work).
            auto pf = prefetch::make_prefetcher(rule, kDegree);
            const auto t0 = std::chrono::steady_clock::now();
            for (const auto &a : stream)
                pf->on_access(a);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            const double us =
                1e6 * secs /
                static_cast<double>(
                    std::max<std::size_t>(1, stream.size()));
            t.add_row({name, rule, pct(r.accuracy), pct(r.coverage),
                       strfmt("%.3f", us)});
            const std::string p =
                "transformer." + wl + "." + stat_name_segment(rule);
            ctx.stats().gauge(p + ".acc") = r.accuracy;
            ctx.stats().gauge(p + ".cov") = r.coverage;
            ctx.stats().gauge(p + ".us_per_access",
                              /*volatile_stat=*/true) = us;
        }
        for (const auto &a : stream)
            aggregate.on_access(a);

        const auto vr = ctx.voyager_result(name, {}, kDegree);
        const auto rr = ctx.run_replay(name, "voyager", vr.predictions);
        const double us =
            1e6 * vr.inference_seconds /
            static_cast<double>(
                std::max<std::uint64_t>(1, vr.predicted_samples));
        t.add_row({name, "voyager", pct(rr.accuracy), pct(rr.coverage),
                   strfmt("%.3f", us)});
        const std::string p = "transformer." + wl + ".voyager";
        ctx.stats().gauge(p + ".acc") = rr.accuracy;
        ctx.stats().gauge(p + ".cov") = rr.coverage;
        ctx.stats().gauge(p + ".us_per_access",
                          /*volatile_stat=*/true) = us;
    }
    aggregate.export_stats(ctx.stats(), "prefetch.stream_group");

    std::cout << "\n";
    t.print(std::cout);
    std::cout << "\nstream_group fast-tracks: " << aggregate.fast_tracks()
              << ", streams: " << aggregate.streams_created()
              << ", groups: " << aggregate.table_pcs() << " pcs\n"
              << "expected shape: stream_group leads the rule-based "
                 "pack on the regular weight/KV streams at a fraction "
                 "of the temporal prefetchers' metadata; voyager "
                 "competes after training.\n";
    return ctx.exit_code();
}
