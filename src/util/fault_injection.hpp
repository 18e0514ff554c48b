/**
 * @file
 * Deterministic, seeded fault injection (DESIGN.md §5.14). A
 * FaultPlan names *sites* — (kind, event index) pairs — at which the
 * process-wide FaultInjector perturbs the system: poisoning a
 * gradient or weight with NaN/Inf at a chosen optimizer step, spiking
 * an epoch loss, failing or short-writing an atomic file replacement
 * — or, on the serving path (DESIGN.md §5.19), stalling the predictor
 * for a span of virtual ticks, poisoning a batch's logits, flooding
 * the queue with a request burst, or misrouting a response's tenant
 * id.
 *
 * Every hook is driven by monotonically advancing event counters (or
 * the epoch number), so the same plan against the same seed produces
 * the same faults at the same points — the self-healing tests depend
 * on byte-identical repeat runs. With no plan installed every hook is
 * a cheap no-op; production code paths call them unconditionally.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace voyager {

class StatRegistry;

/** What a fault site perturbs. */
enum class FaultKind : std::uint8_t
{
    NanGrad = 0,       ///< poison a gradient element with NaN
    InfGrad = 1,       ///< poison a gradient element with +Inf
    NanWeight = 2,     ///< poison a weight element with NaN post-step
    LossSpike = 3,     ///< multiply an epoch loss by `magnitude`
    IoShortWrite = 4,  ///< atomic write persists only a prefix, fails
    IoFailRename = 5,  ///< atomic write fails at the rename step
    ServeStall = 8,    ///< stall the serve predictor for `x` ticks
    ServePoison = 9,   ///< poison one serve batch's predictions
    ServeFlood = 10,   ///< burst `x` extra requests at a submit pick
    ServeMisroute = 11,///< corrupt one response's tenant id
};

/** One injection site. */
struct FaultSite
{
    FaultKind kind = FaultKind::NanGrad;
    /** Event index the site triggers at: optimizer step (grad/weight
     *  kinds), epoch number (LossSpike), atomic-write ordinal (Io*),
     *  dispatched-batch ordinal (ServeStall / ServePoison),
     *  submit-pick ordinal (ServeFlood), or response ordinal
     *  (ServeMisroute). */
    std::uint64_t at = 0;
    /** 0 = fire once, ever; N = fire at `at`, `at+N`, `at+2N`, ...
     *  (for LossSpike the epoch is the event, so every=N also re-fires
     *  on recovery retries of a matching epoch). */
    std::uint64_t every = 0;
    /** LossSpike scale: spiked = (|loss| + 1) * magnitude. Doubles as
     *  the stall span in virtual ticks (ServeStall) and the burst
     *  length in requests (ServeFlood). */
    double magnitude = 100.0;

    bool operator==(const FaultSite &) const = default;
};

/** A complete, deterministic fault schedule. */
struct FaultPlan
{
    std::vector<FaultSite> sites;
    std::uint64_t seed = 1;

    bool empty() const { return sites.empty(); }

    /**
     * Parse a plan spec:
     *   site(;site)*  with  site = kind '@' key '=' N (':' opt)*
     * kind: nan_grad | inf_grad | nan_weight | loss_spike |
     *       io_short | io_fail | serve_stall | serve_poison |
     *       serve_flood | serve_misroute
     * key:  any of step|epoch|write|batch|submit|response|at
     *       (flavour text; the value is what matters)
     * opt:  every=N | x=V (magnitude)
     * A bare `seed=N` segment sets the plan seed.
     * Example: "nan_grad@step=7;loss_spike@epoch=2:x=50;io_short@write=0"
     * @throws std::invalid_argument on malformed specs.
     */
    static FaultPlan parse(const std::string &spec);

    /** Canonical spec (round-trips through parse). */
    std::string to_string() const;

    /** Stable 8-hex-digit FNV-1a fingerprint of the canonical spec —
     *  a cache-key component, so faulted runs can never collide with
     *  clean cache entries. */
    std::string fingerprint() const;
};

/** Process-wide injected-fault counters (the `fault.*` namespace). */
struct FaultStats
{
    std::uint64_t plan_sites = 0;         ///< sites in the active plan
    std::uint64_t injected_grad = 0;      ///< gradient poisonings
    std::uint64_t injected_weight = 0;    ///< weight poisonings
    std::uint64_t injected_loss_spike = 0;
    std::uint64_t injected_io = 0;        ///< failed atomic writes
    std::uint64_t serve_stalls = 0;       ///< predictor stall windows
    std::uint64_t serve_poisoned = 0;     ///< poisoned serve batches
    std::uint64_t serve_floods = 0;       ///< injected request bursts
    std::uint64_t serve_misroutes = 0;    ///< corrupted response tenants

    void
    reset()
    {
        *this = FaultStats{};
    }
};

/** The process-wide fault counters (cf. core::checkpoint_stats()). */
FaultStats &fault_stats();

/** Export the counters into `reg` as the closed `fault.*` namespace
 *  (declared in util/stat_schema.cpp). */
void export_fault_stats(StatRegistry &reg);

/** What write_file_atomic should do for the current write. */
enum class IoFaultAction : std::uint8_t
{
    None = 0,
    ShortWrite = 1,  ///< persist a prefix of the temp file, then fail
    FailRename = 2,  ///< fail as if the rename step had failed
};

/** Serve-path faults for one dispatched batch (see on_serve_batch). */
struct ServeBatchFaults
{
    /** Virtual ticks the predictor stalls for (0 = no stall). */
    std::uint64_t stall_ticks = 0;
    /** Poison this batch's predictions (non-finite logits). */
    bool poison = false;
};

/** Poison values for one optimizer step (see on_optimizer_step). */
struct OptStepFaults
{
    /** Value to write into a gradient element before the update. */
    std::optional<double> grad;
    /** Value to write into a weight element after the update. */
    std::optional<double> weight;
};

/**
 * The process-wide fault injector. All hooks are deterministic: each
 * event class advances its own counter and sites fire by exact index
 * match (plus `every`-strides), so a plan replays identically.
 */
class FaultInjector
{
  public:
    /** Install a plan; resets event cursors and fault_stats(). */
    void install(const FaultPlan &plan);

    /** Remove the plan; every hook becomes a no-op again. */
    void clear();

    bool enabled() const { return !plan_.sites.empty(); }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Optimizer-step hook (one call per Adam::step, counted).
     * Returns the poison values the optimizer should apply.
     */
    OptStepFaults on_optimizer_step();

    /** Epoch-loss hook: the (possibly spiked) loss. */
    double on_epoch_loss(std::uint64_t epoch, double loss);

    /** Atomic-write hook (one call per write_file_atomic, counted). */
    IoFaultAction on_atomic_write();

    /**
     * Serve-batch hook (one call per dispatched batch with live rows,
     * counted). Returns the stall span and/or poison flag the server
     * should apply to this batch's predictor forward.
     */
    ServeBatchFaults on_serve_batch();

    /**
     * Submit-pick hook (one call per client scheduling pick, counted).
     * @return the number of *extra* burst requests to inject (0 = no
     * flood at this pick).
     */
    std::uint64_t on_serve_submit();

    /**
     * Response-routing hook (one call per emitted response, counted).
     * Corrupts `tenant` in place when a ServeMisroute site fires.
     * @return true when the tenant id was corrupted.
     */
    bool corrupt_serve_route(std::uint32_t &tenant);

  private:
    /** Does site i fire at `event`? Marks one-shot sites consumed. */
    bool site_fires(std::size_t i, std::uint64_t event);

    FaultPlan plan_;
    std::vector<std::uint8_t> fired_;  ///< one-shot consumption flags
    std::uint64_t opt_steps_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t serve_batches_ = 0;
    std::uint64_t serve_submits_ = 0;
    std::uint64_t serve_responses_ = 0;
};

/** The process-wide injector every hook point consults. */
FaultInjector &fault_injector();

}  // namespace voyager
