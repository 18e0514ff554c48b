/**
 * @file
 * The benchmark's four workloads (see ../METRICS.md for why each one
 * exists and which layer it stresses):
 *
 *  - serve_fp32:    bfs, 4 tenants served by PrefetchServer through the
 *                   fp32 AdapterPredictor;
 *  - serve_tabular: the same requests served by a TabularPredictor
 *                   with an int8 neural fallback;
 *  - train_online:  xalancbmk, online training then batch-1 predicts;
 *  - sim_rules:     bfs and mcf with the paper's hierarchy under five
 *                   rule-based prefetchers and none.
 *
 * Traces and model seeds are fixed. The run seed chooses the tenant
 * interleaving, the order of the simulations and which requests the
 * batch-invariance check samples, so the program receives only the
 * generated request order and every deterministic output is the same
 * under every seed.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "serve/request.hpp"
#include "sim/prefetcher.hpp"

namespace perfbench {

/** One run as the command line asks for it. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans; empty = do not write. */
    std::string spans_path;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run measured and whether its outputs were correct. */
struct Result
{
    /** Failed output checks; empty when every check passed. */
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> report;
};

const std::vector<std::string> &workload_names();

/** Run one workload. @throws std::invalid_argument on a bad name. */
Result run_workload(const Options &opt);

/** Peak resident set of this process so far, in MiB (ru_maxrss). */
double peak_rss_mib();

// ---- Workload generation, exposed for the benchmark's tests ----------

/**
 * The submit order of one serving pass: a tenant index per request,
 * drawn uniformly among tenants with requests left, from a generator
 * seeded by (seed, pass). Tenant t appears sizes[t] times.
 */
std::vector<std::uint32_t>
tenant_schedule(std::uint64_t seed, std::uint64_t pass,
                const std::vector<std::size_t> &sizes);

/** `tenants` disjoint contiguous slices of `per_tenant` accesses from
 *  stream[first, end), spread evenly over that range. */
std::vector<std::vector<voyager::sim::LlcAccess>>
tenant_slices(const std::vector<voyager::sim::LlcAccess> &stream,
              std::size_t first, std::size_t tenants,
              std::size_t per_tenant);

/**
 * Share of served lines the issuing tenant touches within its next
 * `horizon` accesses. `responses[t]` holds tenant t's responses.
 * @return {accurate lines, served lines}.
 */
std::pair<std::uint64_t, std::uint64_t>
prefetch_accuracy(
    const std::vector<std::vector<voyager::sim::LlcAccess>> &slices,
    const std::vector<std::vector<voyager::serve::PrefetchResponse>>
        &responses,
    std::size_t horizon);

}  // namespace perfbench
