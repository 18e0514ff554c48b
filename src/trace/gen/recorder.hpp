/**
 * @file
 * TraceRecorder: the instrumentation hook the workload generators use
 * to emit memory accesses. It tracks the dynamic instruction id and
 * lets kernels interleave "compute" (non-memory) instructions, which
 * the core model later charges as single-cycle ops.
 */
#pragma once

#include <cstdint>
#include <stdexcept>

#include "trace/trace.hpp"

namespace voyager::trace {

/** Helpers for laying out synthetic code and data address spaces. */
namespace layout {

/** Base of the synthetic code segment; one "source line" = 4 bytes. */
inline constexpr Addr kCodeBase = 0x400000;

/**
 * PC for (basic block, line-in-block). Blocks are 256 bytes apart so a
 * basic-block id can be recovered as pc >> 8 (see core::Labeler).
 */
constexpr Addr
pc_of(std::uint32_t block, std::uint32_t line)
{
    return kCodeBase + (static_cast<Addr>(block) << 8) +
           static_cast<Addr>(line) * 4;
}

/** Base virtual address of data structure `id` (1 GiB apart). */
constexpr Addr
data_base(std::uint32_t id)
{
    return (static_cast<Addr>(id) + 1) << 30;
}

/**
 * Declared bounds of the synthetic address spaces. Every generator
 * emits PCs from pc_of() with block < 4096 and data addresses inside
 * a structure's 1 GiB slot with id < kMaxDataStructures; the workload
 * property suite (tests/workloads_test.cpp) asserts every recorded
 * access against these bounds, so new generators inherit the check.
 */
inline constexpr Addr kCodeLimit = kCodeBase + (1ull << 20);
inline constexpr std::uint32_t kMaxDataStructures = 256;
inline constexpr Addr kDataLimit = data_base(kMaxDataStructures);

}  // namespace layout

/**
 * Validate a generator's requested trace length. A zero-length
 * request is a caller bug (an empty trace would propagate silently
 * into the simulator and score 0 on everything), so it throws instead
 * of emitting nothing.
 *
 * @returns max_accesses, so generators can initialize their budget
 *          from the checked value in one expression.
 * @throws std::invalid_argument when max_accesses == 0.
 */
inline std::uint64_t
checked_budget(std::uint64_t max_accesses)
{
    if (max_accesses == 0)
        throw std::invalid_argument(
            "trace generator: max_accesses must be > 0");
    return max_accesses;
}

/**
 * Accesses a generator reserves past its budget. Generators test the
 * budget between kernel beats, so most finish a few accesses past it
 * (at most 79, soplex at Tiny scale). Were the buffer full there, that
 * last beat would reallocate it and copy the whole trace.
 */
inline constexpr std::uint64_t kBudgetSlack = 128;

/** Appends accesses to a Trace while tracking instruction ids. */
class TraceRecorder
{
  public:
    explicit TraceRecorder(Trace &trace) : trace_(trace) {}

    /** Emit a load at `pc` touching `addr`, then advance one instr. */
    void
    load(Addr pc, Addr addr)
    {
        trace_.append({instr_id_++, pc, addr, true});
    }

    /** Emit a store at `pc` touching `addr`. */
    void
    store(Addr pc, Addr addr)
    {
        trace_.append({instr_id_++, pc, addr, false});
    }

    /** Advance the instruction id by n non-memory instructions. */
    void
    compute(std::uint64_t n)
    {
        instr_id_ += n;
        if (instr_id_ > trace_.instructions())
            trace_.set_instructions(instr_id_);
    }

    std::uint64_t instr_id() const { return instr_id_; }
    std::size_t recorded() const { return trace_.size(); }

  private:
    Trace &trace_;
    std::uint64_t instr_id_ = 0;
};

}  // namespace voyager::trace
