/**
 * @file
 * sim_rules: bfs and mcf generated at paper scale and simulated, with
 * the paper's hierarchy and empty caches, under no prefetcher and five
 * rule-based ones. Nothing neural runs. The simulator is unvalidated
 * against hardware, so simulated IPC carries no error figure.
 */
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "harness.hpp"
#include "prefetch/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"
#include "util/random.hpp"
#include "wrappers.hpp"

namespace perfbench::harness {

using namespace voyager;

namespace {

// Paper-scale traces and hierarchy; a fixed prefix of each trace keeps
// one pass of all twelve simulations near a second.
constexpr std::size_t kSimAccesses = 300000;
constexpr std::uint32_t kSimDegree = 1;
/** on_access calls replayed untimed before the timed window. */
constexpr std::size_t kProbeWarm = 20000;
/** Timed samples per prefetcher and trace, each a block of
 *  kProbeBlock consecutive calls: a single call takes about 0.1 us, so
 *  timing it alone would weigh the clock read and single cache misses
 *  as much as the prefetcher's own work. */
constexpr std::size_t kProbeSamples = 1000;
constexpr std::size_t kProbeBlock = 16;

const std::vector<std::string> kSimTraces = {"bfs", "mcf"};
const std::vector<std::string> &kSimPrefetchers = rule_prefetchers();

struct SimFixture
{
    std::vector<trace::Trace> traces;
    std::vector<std::vector<sim::LlcAccess>> streams;
    sim::SimConfig cfg = sim::default_sim_config();
};

std::unique_ptr<SimFixture>
setup_sim(SpanRecorder *rec)
{
    auto f = std::make_unique<SimFixture>();
    for (const std::string &name : kSimTraces) {
        {
            ScopedSpan s(rec, "trace.gen");
            f->traces.push_back(trace::gen::make_workload(
                name, trace::gen::Scale::Paper, kTraceSeed));
            f->traces.back().truncate(kSimAccesses);
        }
        ScopedSpan s(rec, "sim.extract");
        f->streams.push_back(
            sim::extract_llc_stream(f->traces.back(), f->cfg));
    }
    return f;
}

struct SimPass
{
    /** Accesses simulated per thread CPU second and per wall second. */
    double accesses_per_s = 0.0;
    double accesses_per_wall_s = 0.0;
    /** results[trace][prefetcher], in kSimTraces x kSimPrefetchers order. */
    std::vector<std::vector<sim::SimResult>> results;
    std::vector<double> probe_us;
};

SimPass
sim_pass(const SimFixture &f, std::uint64_t seed, std::uint64_t pass_no,
         SpanRecorder *rec)
{
    SimPass out;
    out.results.assign(kSimTraces.size(),
                       std::vector<sim::SimResult>(kSimPrefetchers.size()));
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    for (std::size_t i = 0; i < kSimTraces.size(); ++i)
        for (std::size_t j = 0; j < kSimPrefetchers.size(); ++j)
            jobs.emplace_back(i, j);
    Rng rng(mix(seed, pass_no));
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.next_below(i)]);

    double cpu_s = 0.0;
    double wall_s = 0.0;
    double accesses = 0.0;
    for (const auto &[i, j] : jobs) {
        auto pf = prefetch::make_prefetcher(kSimPrefetchers[j], kSimDegree);
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        if (rec != nullptr) {
            TracedPrefetcher traced(*pf, *rec, label_of(kSimPrefetchers[j]));
            ScopedSpan s(rec, "sim.simulate");
            out.results[i][j] = sim::simulate(f.traces[i], f.cfg, traced);
        } else {
            out.results[i][j] = sim::simulate(f.traces[i], f.cfg, *pf);
        }
        cpu_s += cpu_seconds_since(c0);
        wall_s += seconds_since(t0);
        accesses += static_cast<double>(f.traces[i].size());
    }
    out.accesses_per_s = ratio(accesses, cpu_s);
    out.accesses_per_wall_s = ratio(accesses, wall_s);

    // Prefetch-decision latency: each rule prefetcher replays the LLC
    // stream outside the simulator, warmed untimed, then timed in blocks
    // of consecutive calls; a sample is a block's time per call.
    ScopedSpan probe(rec, "probe.on_access");
    for (std::size_t i = 0; i < kSimTraces.size(); ++i)
        for (std::size_t j = 1; j < kSimPrefetchers.size(); ++j) {
            auto pf =
                prefetch::make_prefetcher(kSimPrefetchers[j], kSimDegree);
            const auto &s = f.streams[i];
            if (s.size() < kProbeWarm + kProbeSamples * kProbeBlock)
                throw std::runtime_error("sim probe: LLC stream too short");
            std::size_t k = 0;
            for (; k < kProbeWarm; ++k)
                pf->on_access(s[k]);
            for (std::size_t b = 0; b < kProbeSamples; ++b) {
                const std::int64_t t0 = now_ns();
                for (std::size_t c = 0; c < kProbeBlock; ++c, ++k)
                    pf->on_access(s[k]);
                const std::int64_t dt = now_ns() - t0;
                out.probe_us.push_back(static_cast<double>(dt) * 1e-3 /
                                       kProbeBlock);
            }
        }
    return out;
}

bool
same_result(const sim::SimResult &a, const sim::SimResult &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.llc_accesses == b.llc_accesses &&
           a.llc_misses == b.llc_misses &&
           a.prefetches_issued == b.prefetches_issued &&
           a.prefetches_useful == b.prefetches_useful &&
           a.prefetches_late == b.prefetches_late;
}

void
check_sim_pass(const SimPass &p, const SimPass *ref, const char *what,
               Checks &chk)
{
    for (std::size_t i = 0; i < kSimTraces.size(); ++i)
        for (std::size_t j = 0; j < kSimPrefetchers.size(); ++j) {
            const sim::SimResult &r = p.results[i][j];
            const std::string id = kSimTraces[i] + "/" + kSimPrefetchers[j];
            chk.expect(r.prefetches_useful <= r.prefetches_issued,
                       id + ": more useful prefetches than issued");
            chk.expect(r.instructions == p.results[i][0].instructions,
                       id + ": instruction count differs from no prefetcher");
            chk.expect(r.ipc > 0.0, id + ": IPC is not positive");
            if (ref != nullptr)
                chk.expect(same_result(r, ref->results[i][j]),
                           std::string(what) + " " + id +
                               ": simulated result differs from the first "
                               "pass");
        }
}

}  // namespace

Measured
run_sim(const Options &opt, SpanRecorder *rec, Result &res,
        Checks &chk)
{
    Measured m;

    std::unique_ptr<SimFixture> f;
    const auto set_up = [&](std::size_t) {
        f.reset();
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = cpu_ns();
        ScopedSpan phase(rec, "setup");
        f = setup_sim(rec);
        m.setup_s.push_back(cpu_seconds_since(c0));
        m.setup_wall_s.push_back(seconds_since(t0));
    };
    run_passes(kSetupSeconds, kSetupRepeats, kMaxSetupRepeats, set_up);

    SimPass ref;
    std::vector<double> aps;
    std::vector<double> wall_aps;
    LatencyPool probe;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    run_passes(untraced_s, kMinPasses, std::numeric_limits<std::size_t>::max(),
               [&](std::size_t p) {
                   SimPass pass = sim_pass(*f, opt.seed, p, nullptr);
                   check_sim_pass(pass, p == 0 ? nullptr : &ref,
                                  "untraced pass", chk);
                   aps.push_back(pass.accesses_per_s);
                   wall_aps.push_back(pass.accesses_per_wall_s);
                   probe.add_pass(pass.probe_us);
                   res.attempted += kSimTraces.size() * kSimPrefetchers.size();
                   if (p == 0) {
                       ref = std::move(pass);
                       m.peak_rss_mib = peak_rss_mib();
                   }
               });
    set_work_rate(m, aps, wall_aps, "sim_accesses_per_s", res);
    set_latency(m, std::move(probe), "on_access", res, chk);
    double log_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < kSimTraces.size(); ++i) {
        const double base = ref.results[i][0].ipc;
        for (std::size_t j = 1; j < kSimPrefetchers.size(); ++j, ++n) {
            const sim::SimResult &r = ref.results[i][j];
            log_sum += std::log(ratio(r.ipc, base));
            res.report.push_back(fmt(
                "%-4s %-7s ipc %.6f (x%.4f) issued %llu useful %llu",
                kSimTraces[i].c_str(), kSimPrefetchers[j].c_str(), r.ipc,
                ratio(r.ipc, base),
                static_cast<unsigned long long>(r.prefetches_issued),
                static_cast<unsigned long long>(r.prefetches_useful)));
        }
    }
    m.quality = std::exp(log_sum / static_cast<double>(n));
    for (std::size_t i = 0; i < kSimTraces.size(); ++i)
        res.report.push_back(fmt(
            "%s: %zu accesses, %zu LLC accesses, %llu LLC misses without "
            "prefetching, caches start empty",
            kSimTraces[i].c_str(), f->traces[i].size(),
            f->streams[i].size(),
            static_cast<unsigned long long>(ref.results[i][0].llc_misses)));
    res.report.push_back(fmt("ipc_speedup = %.6f (geometric mean; simulator "
                             "unvalidated against hardware)",
                             m.quality));
    if (!opt.trace)
        return m;

    std::vector<double> traced_aps;
    SimPass last;
    run_passes(opt.seconds / 2, 1, kMaxTracedPasses, [&](std::size_t p) {
        {
            ScopedSpan phase(rec, "measure");
            last = sim_pass(*f, opt.seed, p, rec);
        }
        check_sim_pass(last, &ref, "traced pass", chk);
        traced_aps.push_back(last.accesses_per_s);
    });
    m.traced_work_per_s = median(traced_aps);
    const auto tot = rec->totals();
    const double passes = static_cast<double>(traced_aps.size());
    auto &L = m.layer;
    L["sim.simulate.self_s"] =
        totals_of(tot, "sim.simulate").self_seconds / passes;
    nn_metrics(L, 0.0);
    for (std::size_t j = 1; j < kSimPrefetchers.size(); ++j) {
        const std::string p = "prefetch." + label_of(kSimPrefetchers[j]);
        const LayerTotals t = totals_of(tot, p + ".on_access");
        std::uint64_t issued = 0, useful = 0;
        for (std::size_t i = 0; i < kSimTraces.size(); ++i) {
            issued += ref.results[i][j].prefetches_issued;
            useful += ref.results[i][j].prefetches_useful;
        }
        L[p + ".on_access_ns"] =
            ratio(t.seconds * 1e9, static_cast<double>(t.calls));
        L[p + ".issued"] = static_cast<double>(issued);
        L[p + ".useful_share"] = ratio(static_cast<double>(useful),
                                       static_cast<double>(issued));
    }
    return m;
}

}  // namespace perfbench::harness
