/**
 * @file
 * The prefetch-as-a-service front end (DESIGN.md §5.16): clients
 * submit per-tenant lookahead windows into a FIFO RequestQueue; once
 * `max_batch` requests are pending (or on flush) the micro-batcher
 * packs them into one VoyagerBatch, the predictor runs a single
 * batched forward, and the dispatcher decodes per-row candidates back
 * to line addresses through core::decode_candidates (core/decode.hpp,
 * the loop VoyagerAdapter::predict_on shares), routing each response
 * to its issuing tenant.
 *
 * Latency is measured in virtual ticks (1 tick = 1 submit) so the
 * `serve.*` histograms are bit-identical across reruns; wall-clock
 * forward time is exported separately as volatile stats.
 *
 * Overload resilience (DESIGN.md §5.19): the queue is bounded and
 * submit() returns a typed shed result instead of growing without
 * limit; requests optionally carry virtual-tick deadlines and expire
 * into empty responses instead of occupying a forward; per-tenant
 * quotas stop one hot tenant from starving the rest; and a
 * ServeHealthMonitor drives a degradation ladder of EngineRungs
 * (fp32 → int8 → tabular → heuristic) that steps down under deadline
 * misses or predictor faults and recovers hysteretically. All of it is
 * driven by virtual ticks and the deterministic fault injector, so
 * chaos runs replay byte-identically.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/decode.hpp"
#include "core/model.hpp"
#include "serve/batcher.hpp"
#include "serve/degrade.hpp"
#include "serve/heuristic.hpp"
#include "serve/predictor.hpp"
#include "serve/queue.hpp"
#include "util/flat_hash.hpp"
#include "util/stat_registry.hpp"
#include "util/stats.hpp"

namespace voyager::serve {

/** What submit() does when the bounded queue is full. */
enum class ShedPolicy : std::uint8_t
{
    /** Reject the incoming request (the queue is left untouched). */
    RejectNewest = 0,
    /** First evict already-expired queued requests (each gets an
     *  empty expired response); reject only if the queue is still
     *  full afterwards. */
    DropExpired = 1,
};

/** Typed admission outcome returned by submit(). */
enum class SubmitResult : std::uint8_t
{
    Accepted = 0,      ///< enqueued; a response will follow
    ShedCapacity = 1,  ///< rejected: queue at capacity
    ShedQuota = 2,     ///< rejected: tenant over its pending quota
};

/** Serving-layer knobs. */
struct ServeConfig
{
    /** Dispatch as soon as this many requests are pending. */
    std::size_t max_batch = 8;
    /** Extra candidates fetched per request: core::kDecodeOverFetch,
     *  the one over-fetch every decode path shares. Not settable. */
    static constexpr std::uint32_t over_fetch = core::kDecodeOverFetch;
    /** Queue bound (0 = unbounded). The default holds 32 max_batch
     *  batches of default size — far above the clean high-water mark
     *  (max_batch), so it only binds under stalls or floods. */
    std::size_t queue_cap = 256;
    /** Deadline budget stamped on every request as arrival_tick +
     *  deadline_ticks (0 = no deadlines). */
    std::uint64_t deadline_ticks = 0;
    /** Full-queue behaviour. */
    ShedPolicy shed_policy = ShedPolicy::RejectNewest;
    /** Max pending (queued) requests per tenant (0 = unlimited). */
    std::size_t tenant_quota = 0;
    /** Degradation-ladder thresholds. */
    DegradeConfig degrade;
};

/** Queue + micro-batcher + dispatcher over a ladder of engines. */
class PrefetchServer
{
  public:
    /** Single-engine server (no ladder below it). Borrows the
     *  predictor; keep it alive while serving. */
    PrefetchServer(TokenPredictor &predictor,
                   const ServeConfig &cfg = {});

    /**
     * Ladder server: rung 0 is the full-quality engine, later rungs
     * are progressively cheaper fallbacks; the last rung may be a
     * HeuristicEngine. Rung 0's on_activate hook runs here. All rung
     * targets are borrowed.
     *
     * @throws std::invalid_argument if `cfg.max_batch` is 0, the
     *         ladder is empty or has no predictor rung, a rung carries
     *         both a predictor and a heuristic (or neither), or the
     *         predictor rungs disagree on seq_len.
     */
    PrefetchServer(std::vector<EngineRung> rungs,
                   const ServeConfig &cfg = {});

    /**
     * Enqueue one request (its arrival_tick is stamped here; one
     * virtual tick elapses per submit, shed or not). Dispatches full
     * batches synchronously once `max_batch` requests are pending,
     * unless an injected stall holds the dispatcher. @return the
     * typed admission outcome; shed requests get NO response.
     * @throws std::invalid_argument when the pc, page and offset
     *         windows differ in length (nothing is queued and no
     *         tick elapses).
     */
    SubmitResult submit(PrefetchRequest req);

    /** Dispatch every pending request in partial batches (ignores
     *  stalls — flush is the end-of-run drain). */
    void flush();

    /** Move out responses dispatched since the last call, in
     *  dispatch order. */
    std::vector<PrefetchResponse> take_ready();

    const ServeConfig &config() const { return cfg_; }
    std::size_t pending() const { return queue_.depth(); }
    std::uint64_t ticks() const { return tick_; }
    /** Active ladder rung (0 = full quality). */
    std::size_t rung() const { return rung_; }
    /** Stats label of the active rung. */
    const std::string &rung_name() const { return rungs_[rung_].name; }
    /** True while an injected stall is holding the dispatcher. */
    bool stalled() const { return tick_ < stalled_until_; }

    /**
     * Export the closed `serve.*` namespace into `reg`: request/
     * response/batch counters, padded-row and decoded-line totals,
     * distinct-tenant count, shed/deadline/degradation counters, the
     * batch-size / queue-depth / wait-ticks / deadline-slack
     * histograms, the active-rung gauge, and per-rung
     * `serve.degrade.<name>.*` counters. Assigns values, so re-export
     * is idempotent; the wall-clock forward timer lands in volatile
     * `serve.forward.*`.
     */
    void export_stats(StatRegistry &reg) const;

  private:
    /** Dispatch full batches while allowed (not stalled). */
    void maybe_dispatch();

    /** Pack + forward + decode one batch off the queue head. */
    void dispatch_batch();

    /** DropExpired policy: evict past-deadline queued requests, each
     *  answered with an empty expired response. @return evictions. */
    std::size_t expire_queued();

    /** Route one response (misroute-fault checked + repaired) into
     *  ready_, feeding the health monitor. `issuer` is the tenant id
     *  of the issuing request. */
    void emit_response(PrefetchResponse resp, std::uint32_t issuer,
                       bool deadline_miss);

    /** Apply one monitor verdict to the ladder position. */
    void apply_verdict(DegradeVerdict verdict);

    std::vector<EngineRung> rungs_;
    std::size_t rung_ = 0;
    ServeConfig cfg_;
    MicroBatcher batcher_;
    RequestQueue queue_;
    ServeHealthMonitor monitor_;
    std::vector<PrefetchResponse> ready_;
    std::uint64_t tick_ = 0;
    std::uint64_t stalled_until_ = 0;

    // Serving statistics (virtual-tick based, deterministic).
    std::uint64_t n_requests_ = 0;
    std::uint64_t n_responses_ = 0;
    std::uint64_t n_batches_ = 0;
    std::uint64_t n_flushes_ = 0;
    std::uint64_t n_padded_rows_ = 0;
    std::uint64_t n_lines_ = 0;
    std::uint64_t n_shed_ = 0;
    std::uint64_t n_shed_quota_ = 0;
    std::uint64_t n_dropped_expired_ = 0;
    std::uint64_t n_expired_rows_ = 0;
    std::uint64_t n_deadline_miss_ = 0;
    std::uint64_t n_deadline_met_ = 0;
    std::uint64_t n_stall_ticks_ = 0;
    std::uint64_t n_misroutes_repaired_ = 0;
    std::uint64_t n_predictor_faults_ = 0;
    std::uint64_t n_steps_down_ = 0;
    std::uint64_t n_steps_up_ = 0;
    std::vector<std::uint64_t> rung_responses_;
    std::vector<std::uint64_t> rung_deadline_miss_;
    FlatHashSet<std::uint32_t> tenants_;
    FlatHashMap<std::uint32_t, std::uint32_t> pending_by_tenant_;
    Histogram batch_size_hist_;
    Histogram queue_depth_hist_;
    Histogram wait_ticks_hist_;
    Histogram deadline_slack_hist_;
    // Wall-clock forward time (volatile on export).
    double forward_seconds_ = 0.0;

    // Dispatch scratch, reused across batches.
    std::vector<PrefetchRequest> batch_reqs_;
    std::vector<PrefetchRequest> live_reqs_;
    std::vector<std::uint32_t> batch_tenants_;
    std::vector<std::vector<Addr>> heur_lines_;
    core::VoyagerBatch batch_;
};

}  // namespace voyager::serve
