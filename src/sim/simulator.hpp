/**
 * @file
 * The top-level simulation driver: runs a trace through the core +
 * hierarchy with a given prefetcher and reports the paper's metrics
 * (IPC, prefetch accuracy, prefetch coverage). Also extracts the LLC
 * demand-access stream, which is what the neural models train on.
 */
#pragma once

#include <string>
#include <vector>

#include "sim/core_model.hpp"
#include "sim/hierarchy.hpp"
#include "sim/prefetcher.hpp"
#include "trace/trace.hpp"

namespace voyager::sim {

/** Everything configurable about one simulation. */
struct SimConfig
{
    HierarchyConfig hierarchy{};
    CoreConfig core{};
};

/** Results of one simulation run. */
struct SimResult
{
    std::string trace_name;
    std::string prefetcher_name;
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;

    std::uint64_t llc_accesses = 0;
    std::uint64_t llc_misses = 0;       ///< remaining (uncovered) misses
    std::uint64_t prefetches_issued = 0;
    std::uint64_t prefetches_useful = 0;
    std::uint64_t prefetches_late = 0;
    std::uint64_t prefetches_dropped = 0;  ///< in-flight budget full

    double accuracy = 0.0;   ///< useful / issued
    double coverage = 0.0;   ///< useful / (useful + uncovered misses)

    /** Per-level counters captured at the end of the run. */
    CacheStats l1;
    CacheStats l2;
    CacheStats llc;
    DramStats dram;

    /** IPC improvement over a baseline run, e.g. 0.416 for +41.6%. */
    double speedup_over(const SimResult &baseline) const;

    /**
     * Export everything above into `reg` under `<prefix>.`:
     * headline gauges (`.ipc`, `.accuracy`, `.coverage`), prefetch
     * counters (`.prefetch.*`) and the full hierarchy breakdown
     * (`.l1/.l2/.llc/.dram.*`). Assigns, so re-export is idempotent.
     */
    void export_stats(StatRegistry &reg,
                      const std::string &prefix) const;
};

/** Paper Table 3 configuration. */
SimConfig default_sim_config();

/**
 * Hierarchy scaled down proportionally to the `small` workload scale
 * (single-core host; see DESIGN.md §6): working sets shrink with the
 * trace budget, so the caches shrink with them to preserve the
 * paper's miss behaviour.
 */
SimConfig small_sim_config();

/** Hierarchy scaled to the unit-test (`tiny`) workload scale. */
SimConfig tiny_sim_config();

/** Run `trace` with `prefetcher` (use NullPrefetcher for baseline). */
SimResult simulate(const trace::Trace &trace, const SimConfig &cfg,
                   Prefetcher &prefetcher);

/**
 * Run the trace's accesses, in order, through the hierarchy with no
 * prefetcher and capture every demand LLC access. No core model runs:
 * without prefetches the stream and each record's hit depend only on
 * access order, so cfg.core is not read. This stream is invariant
 * under LLC prefetching (an L2 miss reaches the LLC whether it hits
 * or misses there), so models trained and evaluated on it can later
 * be replayed inside a prefetching run.
 */
std::vector<LlcAccess> extract_llc_stream(const trace::Trace &trace,
                                          const SimConfig &cfg);

/**
 * Replay prefetcher: per-LLC-access-index candidate lists computed
 * ahead of the run (the neural models' predictions, which are
 * functions of the access index).
 */
class ReplayPrefetcher final : public Prefetcher
{
  public:
    ReplayPrefetcher(std::string name,
                     std::vector<std::vector<Addr>> predictions,
                     std::uint64_t storage_bytes = 0)
        : name_(std::move(name)), predictions_(std::move(predictions)),
          storage_bytes_(storage_bytes)
    {
    }

    std::string name() const override { return name_; }

    std::vector<Addr>
    on_access(const LlcAccess &a) override
    {
        if (a.index < predictions_.size())
            return predictions_[a.index];
        return {};
    }

    std::uint64_t storage_bytes() const override { return storage_bytes_; }

  private:
    std::string name_;
    std::vector<std::vector<Addr>> predictions_;
    std::uint64_t storage_bytes_;
};

}  // namespace voyager::sim
