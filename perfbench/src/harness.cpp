#include "harness.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include <sched.h>

#include "nn/ops.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"
#include "util/random.hpp"

namespace perfbench::harness {

using namespace voyager;

const std::vector<std::string> &
rule_prefetchers()
{
    static const std::vector<std::string> names = {
        "none", "stms", "isb", "domino", "bo", "isb+bo"};
    return names;
}

namespace {

/** CPUs the process may run on, read once, before any pinning. */
const std::vector<int> &
allowed_cpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        return v;
    }();
    return cpus;
}

bool
pin(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/** Seconds a fixed block of independent multiply-adds takes here
 *  (about 0.2 ms on an undisturbed core). */
double
calibration_seconds()
{
    float a[64];
    for (int i = 0; i < 64; ++i)
        a[i] = 1.0f + static_cast<float>(i) * 1e-3f;
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < 100000; ++r)
        for (float &x : a)
            x = x * 0.999999f + 1e-7f;
    const double s = seconds_since(t0);
    volatile float sink = a[7];
    (void)sink;
    return s;
}

}  // namespace

void
move_to_quietest_cpu()
{
    const std::vector<int> &cpus = allowed_cpus();
    if (cpus.size() < 2)
        return;
    int best = cpus.front();
    double best_s = std::numeric_limits<double>::infinity();
    for (const int c : cpus) {
        if (!pin(c))
            continue;
        // The best of three, so one interrupt does not rule a CPU out.
        double s = calibration_seconds();
        s = std::min(s, calibration_seconds());
        s = std::min(s, calibration_seconds());
        if (s < best_s) {
            best_s = s;
            best = c;
        }
    }
    pin(best);
}

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

double
seconds_since(std::int64_t t0_ns)
{
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double
cpu_seconds_since(std::int64_t t0_cpu_ns)
{
    return static_cast<double>(cpu_ns() - t0_cpu_ns) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
label_of(const std::string &prefetcher)
{
    std::string s = prefetcher;
    std::replace(s.begin(), s.end(), '+', '_');
    return s;
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull);
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    return x ^ (x >> 29);
}

std::string
pass_spread(const char *name, std::vector<double> v)
{
    if (v.empty())
        return std::string(name) + ": no passes";
    std::sort(v.begin(), v.end());
    return fmt("%s over %zu passes: min %.4g q1 %.4g median %.4g q3 %.4g "
               "max %.4g",
               name, v.size(), v.front(), percentile_sorted(v, 0.25),
               median(v), percentile_sorted(v, 0.75), v.back());
}

void
set_work_rate(Measured &m, const std::vector<double> &cpu_rate,
              const std::vector<double> &wall_rate, const char *name,
              Result &res)
{
    m.work_per_s = median(cpu_rate);
    res.report.push_back(fmt("%s = %.1f per CPU second, %.1f per wall "
                             "second (medians of %zu passes)",
                             name, m.work_per_s, median(wall_rate),
                             cpu_rate.size()));
    res.report.push_back(pass_spread("per CPU second", cpu_rate));
    res.report.push_back(pass_spread("per wall second", wall_rate));
}

void
LatencyPool::add_pass(const std::vector<double> &us)
{
    samples.insert(samples.end(), us.begin(), us.end());
    const TimingSummary s = summarize(us);
    pass_p50.push_back(s.p50);
    pass_p99.push_back(s.tail_pct == 99.0 ? s.tail : 0.0);
}

void
set_latency(Measured &m, LatencyPool pool, const char *what, Result &res,
            Checks &chk)
{
    const std::size_t passes = pool.pass_p99.size();
    chk.expect(std::count(pool.pass_p99.begin(), pool.pass_p99.end(),
                          0.0) == 0,
               fmt("%s: a pass timed too few items for a p99", what));
    const TimingSummary lat = summarize(std::move(pool.samples));
    m.latency_p50_us = lat.p50;
    m.latency_p99_us = median(pool.pass_p99);
    res.report.push_back(fmt("%s latency p50 %.4f us (n=%zu pooled over %zu "
                             "passes), p99 %.4f us (median of per-pass p99; "
                             "pooled p99 %.4f us)",
                             what, lat.p50, lat.n, passes, m.latency_p99_us,
                             lat.tail));
    res.report.push_back(pass_spread("per-pass p50", pool.pass_p50));
    res.report.push_back(pass_spread("per-pass p99", pool.pass_p99));
}

core::VoyagerConfig
scaled_voyager_config()
{
    core::VoyagerConfig c;
    c.seq_len = 8;
    c.pc_embed_dim = 8;
    c.page_embed_dim = 32;
    c.num_experts = 4;
    c.lstm_units = 64;
    c.batch_size = 64;
    c.learning_rate = 3e-2;
    c.lr_decay_ratio = 1.5;
    c.dropout_keep = 0.9f;
    c.seed = kTraceSeed * 7919 + 13;
    return c;
}

std::vector<sim::LlcAccess>
small_llc_stream(const std::string &benchmark, SpanRecorder *rec)
{
    trace::Trace t;
    {
        ScopedSpan s(rec, "trace.gen");
        t = trace::gen::make_workload(benchmark, trace::gen::Scale::Small,
                                      kTraceSeed);
    }
    ScopedSpan s(rec, "sim.extract");
    auto stream = sim::extract_llc_stream(t, sim::small_sim_config());
    if (stream.size() > kLlcCap)
        stream.resize(kLlcCap);
    return stream;
}

double
rank_us_per_row(std::size_t rows, std::int32_t pages, std::int32_t offsets,
                std::size_t k, std::uint64_t seed)
{
    nn::Matrix pl(rows, static_cast<std::size_t>(pages));
    nn::Matrix ol(rows, static_cast<std::size_t>(offsets));
    Rng rng(seed);
    for (std::size_t i = 0; i < pl.size(); ++i)
        pl.data()[i] = static_cast<float>(rng.next_gaussian());
    for (std::size_t i = 0; i < ol.size(); ++i)
        ol.data()[i] = static_cast<float>(rng.next_gaussian());
    std::size_t calls = 0;
    std::size_t rows_out = 0;
    const std::int64_t t0 = now_ns();
    while (calls < 200 || seconds_since(t0) < 0.05) {
        rows_out += core::rank_token_predictions(pl, ol, false, k).size();
        ++calls;
    }
    return seconds_since(t0) * 1e6 / static_cast<double>(rows_out);
}

void
nn_metrics(std::map<std::string, double> &m, double model_s)
{
    const nn::OpStats &s = nn::op_stats();
    m["nn.gemm.seconds"] = s.gemm.seconds;
    m["nn.gemm.gflop_per_s"] =
        ratio(static_cast<double>(s.gemm.work) * 1e-9, s.gemm.seconds);
    m["nn.qgemm.seconds"] = s.qgemm.seconds;
    m["nn.qgemm.gop_per_s"] =
        ratio(static_cast<double>(s.qgemm.work) * 1e-9, s.qgemm.seconds);
    m["nn.lstm_gate.seconds"] = s.lstm_gate.seconds;
    m["nn.lstm_gate.ns_per_element"] = ratio(
        s.lstm_gate.seconds * 1e9, static_cast<double>(s.lstm_gate.work));
    m["nn.attention.seconds"] = s.attention.seconds;
    const double kernels = s.gemm.seconds + s.qgemm.seconds +
                           s.lstm_gate.seconds + s.attention.seconds;
    // Embedding gathers, ranking and copies: model time outside the
    // four counted kernel classes.
    m["nn.unattributed_share"] =
        model_s > 0.0 ? 1.0 - kernels / model_s : 0.0;
}

}  // namespace perfbench::harness
