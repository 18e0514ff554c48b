#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "harness.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace voyager;
using namespace harness;

namespace {

/** Per-layer metric table: every name the traced run reports, with its
 *  unit. Layers a workload does not run read 0 there. */
const std::vector<std::pair<std::string, std::string>> &
per_layer_table()
{
    static const std::vector<std::pair<std::string, std::string>> t = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"serve.submit.self_us_per_req", "us"},
            {"serve.client.next_request_us", "us"},
            {"serve.batch_rows_mean", "rows"},
            {"serve.padded_rows_share", "share"},
            {"serve.wait_ticks_p99", "ticks"},
            {"serve.decode.calls", "count"},
            {"serve.decode.us_per_call", "us"},
            {"serve.lines_per_candidate", "ratio"},
            {"core.predict_tokens.us_per_row", "us"},
            {"core.predict_tokens.rows_per_call", "rows"},
            {"core.rank.us_per_row", "us"},
            {"core.tabular.probe_us_per_row", "us"},
            {"core.tabular.hit_rate", "share"},
            {"core.tabular.fallback_rows", "count"},
            {"core.tabular.fallback_us_per_row", "us"},
            {"core.train_on.us_per_sample", "us"},
            {"core.predict_on.us_per_sample", "us"},
            {"core.adapter_build_s", "s"},
            {"core.distill_s", "s"},
            {"nn.gemm.seconds", "s"},
            {"nn.gemm.gflop_per_s", "GFLOP/s"},
            {"nn.qgemm.seconds", "s"},
            {"nn.qgemm.gop_per_s", "GOP/s"},
            {"nn.lstm_gate.seconds", "s"},
            {"nn.lstm_gate.ns_per_element", "ns"},
            {"nn.attention.seconds", "s"},
            {"nn.unattributed_share", "share"},
            {"trace.gen_s", "s"},
            {"sim.extract_s", "s"},
            {"sim.simulate.self_s", "s"},
        };
        for (const auto &pf : rule_prefetchers()) {
            if (pf == "none")
                continue;
            const std::string p = "prefetch." + label_of(pf);
            v.push_back({p + ".on_access_ns", "ns"});
            v.push_back({p + ".issued", "count"});
            v.push_back({p + ".useful_share", "share"});
        }
        v.push_back({"setup.unattributed_share", "share"});
        v.push_back({"measure.unattributed_share", "share"});
        v.push_back({"trace_overhead_share", "share"});
        return v;
    }();
    return t;
}

/**
 * Phase attribution of a traced run: report every layer's self time per
 * phase, check that they and the unattributed remainder add up to the
 * phase's wall time, and return the unattributed share.
 */
double
attribute_phase(const SpanRecorder &rec, const std::string &phase,
                Result &res, Checks &chk)
{
    const auto parts = rec.attribution(phase);
    double wall = 0.0;
    for (const Span &s : rec.spans())
        if (s.parent < 0 && s.name == phase)
            wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    double sum = 0.0;
    for (const auto &[name, secs] : parts)
        sum += secs;
    res.report.push_back(
        fmt("attribution of phase '%s' (wall %.6f s):", phase.c_str(), wall));
    for (const auto &[name, secs] : parts)
        res.report.push_back(fmt("  %-36s %12.6f s  %6.2f%%", name.c_str(),
                                 secs, 100.0 * ratio(secs, wall)));
    chk.expect(std::fabs(sum - wall) <= 1e-6 * std::max(1.0, wall),
               fmt("phase %s: self times sum to %.9f s, wall %.9f s",
                   phase.c_str(), sum, wall));
    const auto it = parts.find("unattributed");
    return it == parts.end() ? 0.0 : ratio(it->second, wall);
}

/** Fill the per-layer metrics every workload shares from its spans. */
void
common_layer_metrics(const SpanRecorder &rec, Measured &m, Result &res,
                     Checks &chk)
{
    const auto tot = rec.totals();
    const double setups =
        static_cast<double>(totals_of(tot, "setup").calls);
    auto &L = m.layer;
    L["trace.gen_s"] = totals_of(tot, "trace.gen").seconds / setups;
    L["sim.extract_s"] = totals_of(tot, "sim.extract").seconds / setups;
    L["core.adapter_build_s"] = ratio(
        totals_of(tot, "core.adapter_build").seconds,
        static_cast<double>(totals_of(tot, "core.adapter_build").calls));
    L["core.distill_s"] = totals_of(tot, "core.distill").seconds / setups;
    L["setup.unattributed_share"] = attribute_phase(rec, "setup", res, chk);
    L["measure.unattributed_share"] =
        attribute_phase(rec, "measure", res, chk);
    L["trace_overhead_share"] =
        m.work_per_s > 0.0 ? 1.0 - m.traced_work_per_s / m.work_per_s : 0.0;
}

}  // namespace

// ---- Public ------------------------------------------------------------

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "serve_fp32", "serve_tabular", "train_online", "sim_rules"};
    return names;
}

double
peak_rss_mib()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::uint32_t>
tenant_schedule(std::uint64_t seed, std::uint64_t pass,
                const std::vector<std::size_t> &sizes)
{
    Rng rng(mix(seed, pass));
    std::vector<std::size_t> left = sizes;
    std::vector<std::uint32_t> live;
    for (std::uint32_t t = 0; t < sizes.size(); ++t)
        if (sizes[t] > 0)
            live.push_back(t);
    std::vector<std::uint32_t> out;
    out.reserve(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
    while (!live.empty()) {
        const std::size_t pick = rng.next_below(live.size());
        const std::uint32_t t = live[pick];
        out.push_back(t);
        if (--left[t] == 0) {
            live[pick] = live.back();
            live.pop_back();
        }
    }
    return out;
}

std::vector<std::vector<sim::LlcAccess>>
tenant_slices(const std::vector<sim::LlcAccess> &stream, std::size_t first,
              std::size_t tenants, std::size_t per_tenant)
{
    if (tenants == 0 || first > stream.size() ||
        tenants * per_tenant > stream.size() - first)
        throw std::invalid_argument("tenant_slices: stream too short");
    const std::size_t spare = stream.size() - first - tenants * per_tenant;
    std::vector<std::vector<sim::LlcAccess>> out;
    for (std::size_t i = 0; i < tenants; ++i) {
        const std::size_t start = first + i * per_tenant +
                                  (tenants > 1 ? i * spare / (tenants - 1)
                                               : 0);
        out.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(start),
                         stream.begin() +
                             static_cast<std::ptrdiff_t>(start + per_tenant));
    }
    return out;
}

std::pair<std::uint64_t, std::uint64_t>
prefetch_accuracy(
    const std::vector<std::vector<sim::LlcAccess>> &slices,
    const std::vector<std::vector<serve::PrefetchResponse>> &responses,
    std::size_t horizon)
{
    std::uint64_t accurate = 0;
    std::uint64_t served = 0;
    for (std::size_t t = 0; t < slices.size(); ++t) {
        const auto &s = slices[t];
        for (const serve::PrefetchResponse &r : responses[t]) {
            const std::size_t lo = static_cast<std::size_t>(r.seq) + 1;
            const std::size_t hi = std::min(s.size(), lo + horizon);
            for (const Addr line : r.lines) {
                ++served;
                for (std::size_t k = lo; k < hi; ++k)
                    if (s[k].line == line) {
                        ++accurate;
                        break;
                    }
            }
        }
    }
    return {accurate, served};
}

Result
run_workload(const Options &opt)
{
    Result res;
    Checks chk;
    SpanRecorder recorder;
    SpanRecorder *rec = opt.trace ? &recorder : nullptr;
    Measured m;
    const std::string &w = opt.workload;
    if (w == "serve_fp32" || w == "serve_tabular")
        m = run_serve(opt, w == "serve_tabular", rec, res, chk);
    else if (w == "train_online")
        m = run_train(opt, rec, res, chk);
    else if (w == "sim_rules")
        m = run_sim(opt, rec, res, chk);
    else
        throw std::invalid_argument("unknown workload: " + w);

    if (!opt.trace) {
        res.metrics = {
            {"setup_s", median(m.setup_s), "s"},
            {"peak_rss_mib", m.peak_rss_mib, "MiB"},
            {"work_per_s", m.work_per_s, "1/s"},
            {"latency_p50_us", m.latency_p50_us, "us"},
            {"latency_p99_us", m.latency_p99_us, "us"},
            {"quality", m.quality, "ratio"},
        };
        std::string setups;
        for (std::size_t i = 0; i < m.setup_s.size(); ++i)
            setups += fmt(" %.4f (wall %.4f)", m.setup_s[i],
                          m.setup_wall_s[i]);
        res.report.push_back("setup_s runs, thread CPU seconds:" + setups);
    } else {
        common_layer_metrics(recorder, m, res, chk);
        for (const auto &[name, unit] : per_layer_table()) {
            const auto it = m.layer.find(name);
            res.metrics.push_back(
                {name, it == m.layer.end() ? 0.0 : it->second, unit});
        }
        if (!opt.spans_path.empty())
            recorder.write(opt.spans_path);
    }
    res.failures = chk.take();
    return res;
}

}  // namespace perfbench
