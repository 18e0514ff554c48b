#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/fault_injection.hpp"

namespace voyager::serve {

namespace {

/** Fixed histogram geometries so golden docs never shift shape. */
constexpr double kBatchHistHi = 65.0;
constexpr std::size_t kBatchHistBuckets = 65;
constexpr double kTickHistHi = 256.0;
constexpr std::size_t kTickHistBuckets = 64;

/**
 * Validate the ladder and config; @return the shared seq_len of the
 * predictor rungs (the batcher's window length).
 * @throws std::invalid_argument on any constructor precondition.
 */
std::size_t
checked_seq_len(const std::vector<EngineRung> &rungs,
                const ServeConfig &cfg)
{
    const auto check = [](bool ok, const std::string &why) {
        if (!ok)
            throw std::invalid_argument("PrefetchServer: " + why);
    };
    check(cfg.max_batch > 0, "max_batch is 0");
    const TokenPredictor *first = nullptr;
    for (const EngineRung &r : rungs) {
        check((r.predictor != nullptr) != (r.heuristic != nullptr),
              "rung " + r.name + " needs one predictor or heuristic");
        check(!first || !r.predictor ||
                  r.predictor->seq_len() == first->seq_len(),
              "rung " + r.name + " has a different seq_len");
        first = first ? first : r.predictor;
    }
    check(first != nullptr, "ladder has no predictor rung");
    return first->seq_len();
}

/** Is the request past its deadline at virtual time `now`? */
bool
is_expired(const PrefetchRequest &r, std::uint64_t now)
{
    return r.deadline_tick != 0 && now > r.deadline_tick;
}

}  // namespace

PrefetchServer::PrefetchServer(TokenPredictor &predictor,
                               const ServeConfig &cfg)
    : PrefetchServer(
          std::vector<EngineRung>{{predictor.engine(), &predictor,
                                   nullptr, {}}},
          cfg)
{
}

PrefetchServer::PrefetchServer(std::vector<EngineRung> rungs,
                               const ServeConfig &cfg)
    : rungs_(std::move(rungs)), cfg_(cfg),
      batcher_(checked_seq_len(rungs_, cfg)),
      queue_(cfg.queue_cap), monitor_(cfg.degrade),
      rung_responses_(rungs_.size(), 0),
      rung_deadline_miss_(rungs_.size(), 0),
      batch_size_hist_(0.0, kBatchHistHi, kBatchHistBuckets),
      queue_depth_hist_(0.0, kTickHistHi, kTickHistBuckets),
      wait_ticks_hist_(0.0, kTickHistHi, kTickHistBuckets),
      deadline_slack_hist_(0.0, kTickHistHi, kTickHistBuckets)
{
    if (rungs_[rung_].on_activate)
        rungs_[rung_].on_activate();
}

SubmitResult
PrefetchServer::submit(PrefetchRequest req)
{
    if (req.page.size() != req.pc.size() ||
        req.offset.size() != req.pc.size())
        throw std::invalid_argument(
            "PrefetchServer::submit: window lengths differ (pc " +
            std::to_string(req.pc.size()) + ", page " +
            std::to_string(req.page.size()) + ", offset " +
            std::to_string(req.offset.size()) + ")");
    req.arrival_tick = tick_++;
    if (cfg_.deadline_ticks != 0)
        req.deadline_tick = req.arrival_tick + cfg_.deadline_ticks;
    ++n_requests_;
    tenants_.insert(req.tenant);
    const std::uint32_t tenant = req.tenant;

    if (cfg_.tenant_quota != 0) {
        const auto it = pending_by_tenant_.find(tenant);
        if (it != pending_by_tenant_.end() &&
            it->second >= cfg_.tenant_quota) {
            ++n_shed_quota_;
            return SubmitResult::ShedQuota;
        }
    }
    if (queue_.full() && cfg_.shed_policy == ShedPolicy::DropExpired)
        expire_queued();
    if (queue_.push(std::move(req)) == QueueAdmit::Rejected) {
        ++n_shed_;
        return SubmitResult::ShedCapacity;
    }
    ++pending_by_tenant_[tenant];
    queue_depth_hist_.add(static_cast<double>(queue_.depth()));
    maybe_dispatch();
    return SubmitResult::Accepted;
}

void
PrefetchServer::flush()
{
    ++n_flushes_;
    while (!queue_.empty())
        dispatch_batch();
}

std::vector<PrefetchResponse>
PrefetchServer::take_ready()
{
    std::vector<PrefetchResponse> out;
    out.swap(ready_);
    return out;
}

void
PrefetchServer::maybe_dispatch()
{
    // The stall window holds the dispatcher, so the queue backs up
    // exactly like a hung predictor would make it: depth climbs,
    // deadlines expire, the bound eventually sheds.
    while (!stalled() && queue_.depth() >= cfg_.max_batch)
        dispatch_batch();
}

void
PrefetchServer::dispatch_batch()
{
    batch_reqs_.clear();
    queue_.take_up_to(cfg_.max_batch, batch_reqs_);
    if (batch_reqs_.empty())
        return;

    batch_size_hist_.add(static_cast<double>(batch_reqs_.size()));
    ++n_batches_;

    // Partition expired rows out of the forward. The common (clean)
    // case has none: the whole batch is packed in place, zero copies.
    bool any_expired = false;
    for (const PrefetchRequest &r : batch_reqs_) {
        --pending_by_tenant_[r.tenant];
        if (is_expired(r, tick_))
            any_expired = true;
    }
    const std::vector<PrefetchRequest> *live = &batch_reqs_;
    if (any_expired) {
        live_reqs_.clear();
        for (const PrefetchRequest &r : batch_reqs_)
            if (!is_expired(r, tick_))
                live_reqs_.push_back(r);
        live = &live_reqs_;
    }

    // Shadow-warm the heuristic rung on every live row so a later
    // step-down lands on warm per-tenant tables (DESIGN.md §5.19).
    HeuristicEngine *heur = nullptr;
    for (const EngineRung &er : rungs_)
        if (er.heuristic) {
            heur = er.heuristic;
            break;
        }
    heur_lines_.clear();
    if (heur)
        for (const PrefetchRequest &r : *live)
            heur_lines_.push_back(heur->observe(r));

    // Run the ladder from the active rung down until an engine
    // produces a valid answer for this batch.
    std::vector<std::vector<core::TokenPrediction>> preds;
    bool have_preds = false;
    std::size_t answer = rungs_.size();
    if (!live->empty()) {
        const ServeBatchFaults faults =
            fault_injector().on_serve_batch();
        if (faults.stall_ticks != 0) {
            stalled_until_ =
                std::max(stalled_until_, tick_ + faults.stall_ticks);
            n_stall_ticks_ += faults.stall_ticks;
            ++n_predictor_faults_;
            monitor_.on_fault();
        }

        std::uint32_t max_degree = 0;
        batch_tenants_.clear();
        for (const PrefetchRequest &r : *live) {
            max_degree = std::max(max_degree, r.degree);
            batch_tenants_.push_back(r.tenant);
        }
        n_padded_rows_ += batcher_.pack(*live, batch_);

        bool first_attempt = true;
        for (std::size_t a = rung_; a < rungs_.size(); ++a) {
            if (rungs_[a].heuristic) {
                // The terminal rung cannot fault: table probes always
                // produce (possibly empty) candidate lists.
                answer = a;
                break;
            }
            const auto t0 = std::chrono::steady_clock::now();
            preds = rungs_[a].predictor->predict_tokens_for(
                batch_, max_degree + cfg_.over_fetch, batch_tenants_);
            forward_seconds_ +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (first_attempt && faults.poison)
                for (auto &row : preds)
                    for (auto &p : row) {
                        p.page = -1;
                        p.offset = 0;
                        p.prob =
                            std::numeric_limits<float>::quiet_NaN();
                    }
            first_attempt = false;
            bool ok = true;
            for (const auto &row : preds)
                for (const auto &p : row)
                    if (!std::isfinite(p.prob))
                        ok = false;
            if (ok) {
                answer = a;
                have_preds = true;
                break;
            }
            ++n_predictor_faults_;
            monitor_.on_fault();
        }
        if (answer == rungs_.size())
            answer = rungs_.size() - 1;  // every engine faulted
    }

    // Assemble responses in batch (arrival) order.
    std::size_t li = 0;
    for (const PrefetchRequest &r : batch_reqs_) {
        PrefetchResponse resp;
        resp.tenant = r.tenant;
        resp.seq = r.seq;
        resp.batch_rows =
            static_cast<std::uint32_t>(batch_reqs_.size());
        resp.wait_ticks = tick_ - r.arrival_tick;
        wait_ticks_hist_.add(static_cast<double>(resp.wait_ticks));
        if (is_expired(r, tick_)) {
            resp.expired = true;
            resp.rung = static_cast<std::uint32_t>(rung_);
            ++n_expired_rows_;
            emit_response(std::move(resp), r.tenant,
                          /*deadline_miss=*/true);
            continue;
        }
        resp.rung = static_cast<std::uint32_t>(answer);
        if (rungs_[answer].heuristic) {
            resp.lines = std::move(heur_lines_[li]);
        } else if (have_preds) {
            const TokenPredictor &pred = *rungs_[answer].predictor;
            core::decode_candidates(
                preds[li], r.degree,
                [&](const core::TokenPrediction &p) {
                    return pred.decode(p.page, p.offset, r.prev_line);
                },
                resp.lines);
        }
        n_lines_ += resp.lines.size();
        if (r.deadline_tick != 0) {
            ++n_deadline_met_;
            deadline_slack_hist_.add(
                static_cast<double>(r.deadline_tick - tick_));
        }
        emit_response(std::move(resp), r.tenant,
                      /*deadline_miss=*/false);
        ++li;
    }
}

std::size_t
PrefetchServer::expire_queued()
{
    live_reqs_.clear();
    queue_.drop_expired(tick_, live_reqs_);
    for (const PrefetchRequest &r : live_reqs_) {
        --pending_by_tenant_[r.tenant];
        PrefetchResponse resp;
        resp.tenant = r.tenant;
        resp.seq = r.seq;
        resp.wait_ticks = tick_ - r.arrival_tick;
        resp.expired = true;
        resp.rung = static_cast<std::uint32_t>(rung_);
        ++n_dropped_expired_;
        emit_response(std::move(resp), r.tenant,
                      /*deadline_miss=*/true);
    }
    const std::size_t dropped = live_reqs_.size();
    live_reqs_.clear();
    return dropped;
}

void
PrefetchServer::emit_response(PrefetchResponse resp,
                              std::uint32_t issuer, bool deadline_miss)
{
    // Misroute fault: the injector may corrupt the routing tenant id;
    // the server still holds the issuing request, so it cross-checks
    // and repairs before the response leaves the dispatcher.
    if (fault_injector().corrupt_serve_route(resp.tenant) &&
        resp.tenant != issuer) {
        resp.tenant = issuer;
        ++n_misroutes_repaired_;
    }
    ++rung_responses_[resp.rung];
    if (deadline_miss) {
        ++n_deadline_miss_;
        ++rung_deadline_miss_[resp.rung];
    }
    ++n_responses_;
    apply_verdict(monitor_.on_response(deadline_miss));
    ready_.push_back(std::move(resp));
}

void
PrefetchServer::apply_verdict(DegradeVerdict verdict)
{
    if (verdict == DegradeVerdict::StepDown &&
        rung_ + 1 < rungs_.size()) {
        ++rung_;
        ++n_steps_down_;
        if (rungs_[rung_].on_activate)
            rungs_[rung_].on_activate();
    } else if (verdict == DegradeVerdict::StepUp && rung_ > 0) {
        --rung_;
        ++n_steps_up_;
        if (rungs_[rung_].on_activate)
            rungs_[rung_].on_activate();
    }
}

void
PrefetchServer::export_stats(StatRegistry &reg) const
{
    reg.counter("serve.requests") = n_requests_;
    reg.counter("serve.responses") = n_responses_;
    reg.counter("serve.batches") = n_batches_;
    reg.counter("serve.flushes") = n_flushes_;
    reg.counter("serve.padded_rows") = n_padded_rows_;
    reg.counter("serve.lines") = n_lines_;
    reg.counter("serve.tenants") = tenants_.size();
    reg.counter("serve.queue.cap") = queue_.capacity();
    reg.counter("serve.queue.shed") = n_shed_;
    reg.counter("serve.queue.shed_quota") = n_shed_quota_;
    reg.counter("serve.queue.dropped_expired") = n_dropped_expired_;
    reg.counter("serve.expired_rows") = n_expired_rows_;
    reg.counter("serve.deadline.miss") = n_deadline_miss_;
    reg.counter("serve.deadline.met") = n_deadline_met_;
    reg.counter("serve.stall_ticks") = n_stall_ticks_;
    reg.counter("serve.misroutes_repaired") = n_misroutes_repaired_;
    reg.gauge("serve.degrade.rung") = static_cast<double>(rung_);
    reg.counter("serve.degrade.steps_down") = n_steps_down_;
    reg.counter("serve.degrade.steps_up") = n_steps_up_;
    reg.counter("serve.degrade.predictor_faults") = n_predictor_faults_;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
        const std::string pfx = "serve.degrade." + rungs_[i].name;
        reg.counter(pfx + ".responses") = rung_responses_[i];
        reg.counter(pfx + ".deadline_miss") = rung_deadline_miss_[i];
    }
    reg.histogram("serve.batch_size", 0.0, kBatchHistHi,
                  kBatchHistBuckets) = batch_size_hist_;
    reg.histogram("serve.queue_depth", 0.0, kTickHistHi,
                  kTickHistBuckets) = queue_depth_hist_;
    reg.histogram("serve.wait_ticks", 0.0, kTickHistHi,
                  kTickHistBuckets) = wait_ticks_hist_;
    reg.histogram("serve.deadline.slack", 0.0, kTickHistHi,
                  kTickHistBuckets) = deadline_slack_hist_;
    reg.gauge("serve.forward.seconds", /*volatile_stat=*/true) =
        forward_seconds_;
    reg.counter("serve.forward.count", /*volatile_stat=*/true) =
        n_batches_;
}

}  // namespace voyager::serve
