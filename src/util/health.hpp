/**
 * @file
 * Process-wide training-health counters (the `health.*` namespace,
 * DESIGN.md §5.14). The HealthMonitor in core/trainer and the
 * non-finite guard in nn/Adam both live below core, so the counters
 * live here in util — the bottom layer every library links.
 *
 * All counters are deterministic for a fixed seed + FaultPlan (and
 * zero on a clean run, which the golden fig5_tiny document pins), so
 * they are exported non-volatile.
 */
#pragma once

#include <cstdint>

namespace voyager {

class StatRegistry;

/** Counters for the training watchdog and recovery machinery. */
struct HealthStats
{
    std::uint64_t checks = 0;          ///< HealthMonitor::check calls
    std::uint64_t skipped_steps = 0;   ///< Adam steps with bad grads
    std::uint64_t nonfinite_loss = 0;  ///< NaN/Inf epoch losses seen
    std::uint64_t loss_spikes = 0;     ///< spike/divergence verdicts
    std::uint64_t nonfinite_state = 0; ///< NaN/Inf weight sweeps
    std::uint64_t rollbacks = 0;       ///< snapshot restores performed
    std::uint64_t lr_backoffs = 0;     ///< LR halvings after rollback
    std::uint64_t degraded_runs = 0;   ///< recovery exhaustions

    void
    reset()
    {
        *this = HealthStats{};
    }
};

/** The process-wide health counters (cf. core::checkpoint_stats()). */
HealthStats &health_stats();

/** Export the counters into `reg` as the closed `health.*` namespace
 *  (declared in util/stat_schema.cpp). */
void export_health_stats(StatRegistry &reg);

}  // namespace voyager
