/**
 * @file
 * Trace-driven out-of-order core model: N-wide fetch/retire with a
 * reorder buffer, matching the paper's 4-wide, 128-entry-ROB, 8-stage
 * pipeline. Loads stall retirement for their hierarchy latency; loads
 * inside the ROB window overlap, which is what gives prefetching its
 * IPC effect.
 */
#pragma once

#include <cstdint>

#include "sim/hierarchy.hpp"
#include "trace/trace.hpp"

namespace voyager::sim {

/** Core pipeline parameters. */
struct CoreConfig
{
    std::uint32_t rob_size = 128;
    std::uint32_t width = 4;          ///< fetch and retire width
    std::uint32_t pipeline_depth = 8; ///< fill latency charged at start
};

/** Outcome of a core-model run. */
struct CoreResult
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
};

/**
 * Runs a trace through the hierarchy under the core timing model.
 *
 * The trace carries no register dependences (see DESIGN.md), so the
 * model bounds ILP with the ROB, the pipeline width and memory
 * latency: an instruction issues when ROB space and fetch bandwidth
 * allow, completes after its latency, and retires in order at the
 * retire width.
 */
class OoOCore
{
  public:
    /** @throws std::invalid_argument when rob_size or width is 0. */
    explicit OoOCore(const CoreConfig &cfg);

    /** Simulate the whole trace. */
    CoreResult run(const trace::Trace &trace, MemoryHierarchy &mem) const;

  private:
    CoreConfig cfg_;
};

}  // namespace voyager::sim
