/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH]
 *
 * Runs one workload (serve_fp32, serve_tabular, train_online,
 * sim_rules), prints a human-readable report and, as the last line of
 * standard output, one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": X, "unit": "<unit>"}, ...}}
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
 * variant and reports the per-layer metrics, writing its spans to
 * --spans when given. Exits 1 when an output check fails and 2 on a
 * usage error (without a result line).
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n";
    return 2;
}

/** Parse a whole non-negative decimal integer; false on junk. */
bool
parse_uint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + key);
        const std::string val = argv[++i];
        std::uint64_t n = 0;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed" && parse_uint(val, n)) {
            opt.seed = n;
            have_seed = true;
        } else if (key == "--seconds" && parse_uint(val, n) && n >= 1 &&
                   n <= 600) {
            opt.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (key == "--trace" && (val == "0" || val == "1")) {
            opt.trace = val == "1";
            have_trace = true;
        } else if (key == "--spans") {
            opt.spans_path = val;
        } else {
            return usage("bad argument " + key + " " + val);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const auto &w : perfbench::workload_names())
        known = known || w == opt.workload;
    if (!known)
        return usage("unknown workload " + opt.workload);

    perfbench::Result res;
    try {
        res = perfbench::run_workload(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    for (const auto &m : res.metrics)
        if (!std::isfinite(m.value))
            res.failures.push_back(m.name + " is not finite");

    std::cout << "== perfbench " << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << "\n";
    for (const auto &line : res.report)
        std::cout << line << "\n";
    for (const auto &m : res.metrics) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%-36s %16.6f %s", m.name.c_str(),
                      m.value, m.unit.c_str());
        std::cout << buf << "\n";
    }
    for (const auto &f : res.failures)
        std::cout << "CHECK FAILED: " << f << "\n";

    std::string json = "{\"correct\": ";
    json += res.failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const auto &m = res.metrics[i];
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        // Metric names and units are fixed identifiers; no escaping.
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return res.failures.empty() ? 0 : 1;
}
