/**
 * @file
 * bench_serve — batched multi-tenant serving throughput (DESIGN.md
 * §5.16). Trains one scaled Voyager cheaply (bounded prefix, no
 * bench_cache entry: the sweep measures forward throughput, not
 * accuracy), then serves N tenants — contiguous slices of the same
 * LLC stream — through the src/serve/ pipeline, sweeping inference
 * engine {fp32, int8, distilled} × micro-batch size and reporting
 * wall-clock requests/sec plus the speedup over unbatched
 * (max_batch=1) serving. The distilled engine probes the tabularized
 * model (DESIGN.md §5.18) and falls back to the neural fp32 path on
 * table miss. A final canonical run (fp32, largest batch) exports the
 * literal closed `serve.*` namespace into the stats document; when
 * the distilled engine is swept, a canonical distilled run exports
 * `distill.table.*` and `distill.serve.*` alongside it.
 *
 * Extra flags (on top of the common ones in bench/common.hpp):
 *   --tenants=N              simulated clients (default 4)
 *   --requests=N             accesses served per tenant (default 300)
 *   --serve_batches=a,b,c    max_batch sweep (default 1,2,4,8)
 *   --serve_degree=N         prefetch degree per request (default 2)
 *   --serve_train_samples=N  training-sample cap (default 2000)
 *   --engines=a,b,c          engine sweep (default fp32,int8,distilled)
 *   --distill_budget=N       tabular byte budget (default 262144)
 *
 * Overload-resilience flags (DESIGN.md §5.19):
 *   --queue_cap=N            bounded queue capacity (default 256)
 *   --deadline_ticks=N       per-request deadline budget (default 0 =
 *                            none; the ladder run defaults to
 *                            4*max_batch when left at 0)
 *   --tenant_quota=N         max pending requests per tenant (0 = off)
 *   --shed_policy=S          reject | drop_expired (default reject)
 *   --degrade_window=N       ladder observation window (default 32)
 *   --degrade                run the full degradation ladder
 *                            fp32 -> int8 -> distilled -> heuristic
 *   --chaos                  ladder run under a canned serve fault
 *                            plan (stalls, floods, poison, misroute);
 *                            skipped if --fault_plan already installed
 *                            a plan. Exports the chaos run's serve.*
 *                            document (overwriting the canonical one).
 */
#include <chrono>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/decode.hpp"
#include "core/tabular.hpp"
#include "serve/client.hpp"
#include "serve/heuristic.hpp"
#include "serve/predictor.hpp"
#include "serve/server.hpp"
#include "serve/tabular_predictor.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace voyager;

/** Tenant slices: contiguous, servable (index >= seq_len - 1) and
 *  spread evenly over the stream so tenants see distinct phases. */
std::vector<std::vector<sim::LlcAccess>>
tenant_slices(const std::vector<core::LlcAccess> &stream,
              std::size_t min_index, std::size_t tenants,
              std::size_t requests)
{
    const std::size_t usable = stream.size() - min_index;
    const std::size_t len = std::min(requests, usable / tenants);
    std::vector<std::vector<sim::LlcAccess>> slices;
    for (std::size_t i = 0; i < tenants; ++i) {
        const std::size_t start =
            min_index + i * (usable - len) / std::max<std::size_t>(
                                                 1, tenants - 1);
        slices.emplace_back(stream.begin() + start,
                            stream.begin() + start + len);
    }
    return slices;
}

/** One sweep cell: serve every tenant to exhaustion through `pred`,
 *  return wall seconds spent inside run_interleaved. */
double
serve_once(serve::TokenPredictor &pred, const core::Vocabulary &vocab,
           std::size_t seq_len,
           const std::vector<std::vector<sim::LlcAccess>> &slices,
           std::size_t max_batch, std::uint32_t degree,
           std::uint64_t seed, StatRegistry *reg = nullptr)
{
    serve::ServeConfig sc;
    sc.max_batch = max_batch;
    serve::PrefetchServer server(pred, sc);
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(slices.size()); ++t)
        clients.emplace_back(t, slices[t], vocab, seq_len, degree);
    const auto t0 = std::chrono::steady_clock::now();
    serve::run_interleaved(server, clients, seed);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (reg != nullptr)
        server.export_stats(*reg);
    return dt.count();
}

/** The --degrade/--chaos ladder run: serve every tenant through the
 *  full fp32 -> int8 -> distilled -> heuristic ladder under `sc`,
 *  print a resilience summary, and export the run's serve.* stats. */
void
run_ladder(core::VoyagerAdapter &adapter, const core::TabularTable &table,
           std::size_t seq_len,
           const std::vector<std::vector<sim::LlcAccess>> &slices,
           std::uint32_t degree, const serve::ServeConfig &sc,
           std::uint64_t seed, StatRegistry &reg)
{
    serve::AdapterPredictor neural(adapter);
    serve::TabularPredictor tabular(table, neural);
    serve::HeuristicEngine heuristic("stream_group", degree);
    std::vector<serve::EngineRung> rungs;
    rungs.push_back({"fp32", &neural, nullptr,
                     [&] { adapter.disable_int8_inference(); }});
    rungs.push_back({"int8", &neural, nullptr,
                     [&] { adapter.enable_int8_inference(); }});
    // The distilled rung probes the tables and falls back through the
    // adapter's active engine; keep that engine int8 so the fallback
    // stays on the cheap path.
    rungs.push_back({"distilled", &tabular, nullptr,
                     [&] { adapter.enable_int8_inference(); }});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});

    serve::PrefetchServer server(std::move(rungs), sc);
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(slices.size()); ++t)
        clients.emplace_back(t, slices[t], adapter.vocab(), seq_len,
                             degree);
    serve::run_interleaved(server, clients, seed);
    adapter.disable_int8_inference();

    std::size_t delivered = 0;
    std::size_t shed = 0;
    for (const auto &c : clients) {
        delivered += c.responses().size();
        shed += c.shed().size();
    }
    std::cout << "ladder run: " << delivered << " responses, " << shed
              << " shed, final rung " << server.rung() << " ("
              << server.rung_name() << ")\n";
    server.export_stats(reg);
    export_fault_stats(reg);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::BenchContext ctx(argc, argv, "serve");
    ctx.print_banner(std::cout,
                     "Batched multi-tenant serving throughput "
                     "(DESIGN.md §5.16)");

    const auto benches = ctx.benchmarks({"bfs"});
    const std::string benchmark =
        benches.empty() ? std::string("bfs") : benches.front();
    const auto &stream = ctx.get_stream(benchmark);

    const std::size_t tenants =
        std::max<std::size_t>(1, ctx.raw().get_uint("tenants", 4));
    const std::size_t requests = ctx.raw().get_uint("requests", 300);
    const auto degree = static_cast<std::uint32_t>(
        ctx.raw().get_uint("serve_degree", 2));
    const std::size_t train_cap =
        ctx.raw().get_uint("serve_train_samples", 2000);
    std::vector<std::size_t> batches;
    for (const auto &tok : split(
             ctx.raw().get_string("serve_batches", "1,2,4,8"), ','))
        batches.push_back(std::stoul(tok));
    const auto engines = split(
        ctx.raw().get_string("engines", "fp32,int8,distilled"), ',');
    const std::uint64_t distill_budget =
        ctx.raw().get_uint("distill_budget", 256 * 1024);

    // Train once on a bounded prefix; every sweep cell then serves
    // with frozen weights, so the cells differ only in batching and
    // engine. Two epochs keep train_online's causal protocol happy
    // (epoch 0 is train-only) while the sample cap bounds the cost.
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

    // Tabularize the trained model over its own training prefix
    // (DESIGN.md §5.18) so the distilled engine has warm contexts to
    // probe; everything outside the prefix exercises the fallback.
    core::TabularConfig tab_cfg;
    tab_cfg.degree = degree;
    tab_cfg.budget_bytes = distill_budget;
    std::vector<std::size_t> teach_idx(train_n - adapter.min_index());
    std::iota(teach_idx.begin(), teach_idx.end(), adapter.min_index());
    const auto teacher = adapter.predict_token_candidates(
        teach_idx, tab_cfg.degree + core::kDecodeOverFetch);
    const auto table = core::distill_to_table(
        adapter.encoded(), teach_idx, teacher, vc.seq_len, tab_cfg);
    std::cout << "distilled table: " << table.l1_entries() << " L1 + "
              << table.l2_entries() << " L2 entries, "
              << human_bytes(table.storage_bytes()) << " of "
              << human_bytes(table.budget_bytes()) << " budget\n";

    const auto slices =
        tenant_slices(stream, adapter.min_index(), tenants, requests);
    std::size_t total = 0;
    for (const auto &s : slices)
        total += s.size();
    std::cout << tenants << " tenants x " << slices.front().size()
              << " requests (degree " << degree << ")\n\n";

    Table t({"engine/batch", "requests", "seconds", "req_per_sec",
             "speedup_vs_b1"});
    double best_batched_speedup = 0.0;
    for (const std::string &engine : engines) {
        if (engine == "int8")
            adapter.enable_int8_inference();
        else
            adapter.disable_int8_inference();
        serve::AdapterPredictor neural(adapter);
        std::unique_ptr<serve::TabularPredictor> tabular;
        if (engine == "distilled")
            tabular = std::make_unique<serve::TabularPredictor>(
                table, neural);
        serve::TokenPredictor &pred =
            tabular ? static_cast<serve::TokenPredictor &>(*tabular)
                    : neural;
        double base_rps = 0.0;
        for (const std::size_t b : batches) {
            const double secs =
                serve_once(pred, adapter.vocab(), vc.seq_len, slices,
                           b, degree, ctx.seed());
            const double rps =
                secs > 0.0 ? static_cast<double>(total) / secs : 0.0;
            if (b == batches.front())
                base_rps = rps;
            const double speedup =
                base_rps > 0.0 ? rps / base_rps : 0.0;
            if (b > 1)
                best_batched_speedup =
                    std::max(best_batched_speedup, speedup);
            t.add_row(engine + " b" + std::to_string(b),
                      {static_cast<double>(total), secs, rps, speedup},
                      4);
        }
    }
    adapter.disable_int8_inference();
    t.print(std::cout);
    t.export_stats(ctx.stats(), "bench_serve");
    std::cout << "\nbest batched speedup vs max_batch="
              << batches.front() << ": "
              << strfmt("%.2f", best_batched_speedup) << "x\n";

    // Canonical serve.* document: one fp32 run at the largest batch
    // exports the closed namespace (queue/latency histograms and the
    // volatile forward timer) for schema validation downstream.
    serve::AdapterPredictor canonical(adapter);
    serve_once(canonical, adapter.vocab(), vc.seq_len, slices,
               batches.back(), degree, ctx.seed(), &ctx.stats());

    // Canonical distill.* document: one distilled run at the largest
    // batch exports the table layout and probe/fallback counters.
    for (const auto &engine : engines) {
        if (engine != "distilled")
            continue;
        serve::TabularPredictor tabular(table, canonical);
        serve_once(tabular, adapter.vocab(), vc.seq_len, slices,
                   batches.back(), degree, ctx.seed());
        table.export_stats(ctx.stats());
        tabular.export_stats(ctx.stats());
        break;
    }

    // Overload-resilience ladder run (DESIGN.md §5.19). --chaos also
    // installs a canned serve-path fault plan — predictor stalls, a
    // flooding tenant, poisoned logits and misrouted responses — so
    // the ladder actually degrades; its serve.* export overwrites the
    // canonical one above (the chaos run is the document of record).
    const bool degrade = ctx.raw().get_bool("degrade", false);
    const bool chaos = ctx.raw().get_bool("chaos", false);
    if (degrade || chaos) {
        serve::ServeConfig sc;
        sc.max_batch = batches.back();
        sc.queue_cap = ctx.raw().get_uint("queue_cap", 256);
        sc.deadline_ticks = ctx.raw().get_uint("deadline_ticks", 0);
        if (sc.deadline_ticks == 0)
            sc.deadline_ticks = 4 * sc.max_batch;
        sc.tenant_quota = ctx.raw().get_uint("tenant_quota", 0);
        if (ctx.raw().get_string("shed_policy", "reject") ==
            "drop_expired")
            sc.shed_policy = serve::ShedPolicy::DropExpired;
        sc.degrade.window = static_cast<std::uint32_t>(
            ctx.raw().get_uint("degrade_window", 32));
        if (chaos && !fault_injector().enabled())
            fault_injector().install(FaultPlan::parse(
                "serve_stall@batch=2:every=5:x=24;"
                "serve_flood@submit=7:every=16:x=12;"
                "serve_poison@batch=3:every=9;"
                "serve_misroute@response=5:every=17;"
                "seed=9"));
        // The plan stays installed through process exit so the final
        // stats document records the injected-fault counters.
        run_ladder(adapter, table, vc.seq_len, slices, degree, sc,
                   ctx.seed(), ctx.stats());
    }
    return ctx.exit_code();
}
