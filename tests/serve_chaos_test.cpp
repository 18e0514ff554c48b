/**
 * @file
 * Overload-resilience chaos suite (DESIGN.md §5.19): under the seeded
 * serve fault plan (predictor stalls, poisoned logits, request-burst
 * floods, misrouted responses) the server must never deadlock or lose
 * a non-shed request, per-tenant response order must hold, quotas must
 * isolate a flooding tenant, the degradation ladder must step down and
 * recover hysteretically on the exact same rung trajectory every run,
 * and a clean (fault-free) ladder must behave identically to the
 * plain single-engine server. ServeHealthMonitor's window state
 * machine is unit-tested here too.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/degrade.hpp"
#include "serve/heuristic.hpp"
#include "serve/server.hpp"
#include "serve_fixture.hpp"
#include "util/fault_injection.hpp"
#include "util/stat_registry.hpp"

namespace voyager {
namespace {

using serve::DegradeConfig;
using serve::DegradeVerdict;
using serve::EngineRung;
using serve::HeuristicEngine;
using serve::PrefetchRequest;
using serve::PrefetchResponse;
using serve::PrefetchServer;
using serve::ServeConfig;
using serve::ServeHealthMonitor;
using serve::ShedPolicy;
using serve::SimulatedClient;
using serve::SubmitResult;
using serve_test::StubPredictor;

/** Pristine injector/counters around every chaos test. */
class ChaosFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault_injector().clear();
    }

    void
    TearDown() override
    {
        fault_injector().clear();
    }
};

using ServeChaos = ChaosFixture;
using ServeLadder = ChaosFixture;

PrefetchRequest
make_request(std::uint32_t tenant, std::uint64_t seq,
             std::size_t window, std::int32_t last_page,
             Addr prev_line, std::uint32_t degree = 1)
{
    PrefetchRequest r;
    r.tenant = tenant;
    r.seq = seq;
    r.pc.assign(window, 3);
    r.page.assign(window, 9);
    r.offset.assign(window, 5);
    if (window > 0)
        r.page.back() = last_page;
    r.prev_line = prev_line;
    r.degree = degree;
    return r;
}

// ---------------------------------------------------------------------
// ServeHealthMonitor state machine
// ---------------------------------------------------------------------

TEST(ServeHealthMonitorTest, StepsDownOnWindowFaults)
{
    DegradeConfig cfg;
    cfg.window = 4;
    cfg.faults_down = 1;
    ServeHealthMonitor m(cfg);
    m.on_fault();
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::StepDown);
    // The fault was consumed with its window: the next window is
    // judged on its own merits.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.healthy_streak(), 1u);
}

TEST(ServeHealthMonitorTest, StepsDownOnMissRate)
{
    DegradeConfig cfg;
    cfg.window = 4;
    cfg.miss_rate_down = 0.5;
    ServeHealthMonitor m(cfg);
    EXPECT_EQ(m.on_response(true), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(true), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    // 2/4 misses reaches the 0.5 threshold.
    EXPECT_EQ(m.on_response(false), DegradeVerdict::StepDown);
    EXPECT_EQ(m.healthy_streak(), 0u);
}

TEST(ServeHealthMonitorTest, RecoveryIsHysteretic)
{
    DegradeConfig cfg;
    cfg.window = 2;
    cfg.miss_rate_down = 0.9;
    cfg.miss_rate_up = 0.1;
    cfg.healthy_windows_up = 2;
    ServeHealthMonitor m(cfg);
    // One healthy window is not enough...
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.healthy_streak(), 1u);
    // ...and a middling window (missy, but below the down threshold)
    // resets the streak instead of counting toward recovery.
    EXPECT_EQ(m.on_response(true), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.healthy_streak(), 0u);
    // Two clean windows in a row finally step back up.
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::Hold);
    EXPECT_EQ(m.on_response(false), DegradeVerdict::StepUp);
    EXPECT_EQ(m.healthy_streak(), 0u);
}

TEST(ServeHealthMonitorTest, DisabledMonitorAlwaysHolds)
{
    DegradeConfig cfg;
    cfg.window = 0;  // the monitor's off switch
    ServeHealthMonitor m(cfg);
    m.on_fault();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m.on_response(true), DegradeVerdict::Hold);
}

// ---------------------------------------------------------------------
// Chaos replay determinism + request accounting
// ---------------------------------------------------------------------

TEST_F(ServeChaos, ChaosReplayIsByteIdentical)
{
    const std::string first = serve_test::run_serve_chaos_tiny();
    const std::string second = serve_test::run_serve_chaos_tiny();
    ASSERT_FALSE(first.empty());
    EXPECT_NE(first.find("serve.degrade.rung"), std::string::npos);
    EXPECT_NE(first.find("serve.deadline.slack"), std::string::npos);
    EXPECT_NE(first.find("fault.serve.stalls"), std::string::npos);
    EXPECT_EQ(first, second);
}

TEST_F(ServeChaos, NoRequestLostAndPerTenantOrderHolds)
{
    // The serve_chaos_tiny scenario, but keeping the clients around:
    // every issued request must be accounted for exactly once — as a
    // response (possibly expired) or as a shed — and each tenant's
    // responses must arrive in issue order.
    const auto stream = serve_test::serve_cyclic_stream(480, 30, 7);
    const auto vocab = core::Vocabulary::build(stream);
    constexpr std::size_t kSeqLen = 4;
    StubPredictor fp32(kSeqLen, /*salt=*/0);
    StubPredictor int8(kSeqLen, /*salt=*/8);
    HeuristicEngine heuristic("stream_group", /*degree=*/2);
    std::vector<EngineRung> rungs;
    rungs.push_back({"fp32", &fp32, nullptr, {}});
    rungs.push_back({"int8", &int8, nullptr, {}});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});

    ServeConfig sc;
    sc.max_batch = 4;
    sc.queue_cap = 10;
    sc.deadline_ticks = 12;
    sc.tenant_quota = 6;
    sc.shed_policy = ShedPolicy::DropExpired;
    sc.degrade.window = 16;

    fault_injector().install(serve_test::serve_chaos_plan());
    PrefetchServer server(std::move(rungs), sc);
    std::vector<SimulatedClient> clients;
    for (std::uint32_t t = 0; t < 3; ++t) {
        const std::size_t begin = t * 160;
        const std::vector<sim::LlcAccess> slice(
            stream.begin() + begin, stream.begin() + begin + 150);
        clients.emplace_back(t, slice, vocab, kSeqLen, /*degree=*/2);
    }
    serve::run_interleaved(server, clients, /*seed=*/5);
    fault_injector().clear();

    EXPECT_EQ(server.pending(), 0u);  // fully drained, no deadlock
    for (const SimulatedClient &c : clients) {
        EXPECT_EQ(c.responses().size() + c.shed().size(), c.issued())
            << "tenant " << c.tenant();
        std::vector<bool> seen(c.issued(), false);
        std::int64_t prev = -1;
        for (const PrefetchResponse &r : c.responses()) {
            EXPECT_EQ(r.tenant, c.tenant());
            ASSERT_LT(r.seq, c.issued());
            EXPECT_FALSE(seen[r.seq]) << "duplicate seq " << r.seq;
            EXPECT_GT(static_cast<std::int64_t>(r.seq), prev)
                << "tenant " << c.tenant() << " out of order";
            prev = static_cast<std::int64_t>(r.seq);
            seen[r.seq] = true;
        }
        for (std::uint64_t s : c.shed()) {
            ASSERT_LT(s, c.issued());
            EXPECT_FALSE(seen[s]) << "shed seq " << s
                                  << " also answered";
            seen[s] = true;
        }
        for (std::size_t s = 0; s < seen.size(); ++s)
            EXPECT_TRUE(seen[s]) << "tenant " << c.tenant()
                                 << " lost seq " << s;
    }
}

TEST_F(ServeChaos, QuotaIsolatesAFloodingTenant)
{
    // Tenant 0 bursts eight submits per round while tenants 1 and 2
    // submit one each; the quota bounds tenant 0's queue share so the
    // victims keep meeting their deadlines (no expiries, no sheds).
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 8;  // larger than the quota, so it can bind
    sc.deadline_ticks = 24;
    sc.tenant_quota = 4;
    sc.shed_policy = ShedPolicy::DropExpired;
    PrefetchServer server(pred, sc);

    std::uint64_t seq[3] = {0, 0, 0};
    std::uint64_t flooder_shed = 0;
    std::vector<PrefetchResponse> all;
    const auto drain = [&] {
        for (PrefetchResponse &r : server.take_ready())
            all.push_back(std::move(r));
    };
    for (int round = 0; round < 20; ++round) {
        for (int b = 0; b < 8; ++b) {
            if (server.submit(make_request(0, seq[0], 4, 20, 1)) ==
                SubmitResult::Accepted)
                ++seq[0];
            else
                ++flooder_shed;
            drain();
        }
        for (std::uint32_t t = 1; t < 3; ++t) {
            EXPECT_EQ(server.submit(
                          make_request(t, seq[t], 4, 20 + t, 1)),
                      SubmitResult::Accepted);
            ++seq[t];
            drain();
        }
    }
    server.flush();
    drain();

    EXPECT_GT(flooder_shed, 0u);  // the quota actually bit
    std::uint64_t victim_responses = 0;
    for (const PrefetchResponse &r : all) {
        if (r.tenant == 0)
            continue;
        ++victim_responses;
        EXPECT_FALSE(r.expired)
            << "victim tenant " << r.tenant << " missed seq "
            << r.seq;
    }
    EXPECT_EQ(victim_responses, seq[1] + seq[2]);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.queue.shed_quota"), flooder_shed);
    EXPECT_EQ(reg.counter("serve.queue.shed"), 0u);
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

TEST_F(ServeLadder, DegradesOnPoisonAndRecoversHysteretically)
{
    // One poisoned batch faults the fp32 rung: the int8 rung answers
    // that batch in-line, the window closes on the fault and steps the
    // ladder down, and two clean windows later it steps back up.
    fault_injector().install(
        FaultPlan::parse("serve_poison@batch=0"));
    StubPredictor fp32(4, /*salt=*/0);
    StubPredictor int8(4, /*salt=*/8);
    HeuristicEngine heuristic("stream_group", 2);
    std::vector<EngineRung> rungs;
    rungs.push_back({"fp32", &fp32, nullptr, {}});
    rungs.push_back({"int8", &int8, nullptr, {}});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});
    ServeConfig sc;
    sc.max_batch = 4;
    sc.degrade.window = 4;  // defaults: faults_down=1, 2 windows up
    PrefetchServer server(std::move(rungs), sc);

    std::vector<std::uint32_t> rung_of;
    std::uint64_t seq = 0;
    const auto submit_batch = [&] {
        for (int i = 0; i < 4; ++i)
            server.submit(make_request(0, seq++, 4, 30, 0x9));
        for (const PrefetchResponse &r : server.take_ready())
            rung_of.push_back(r.rung);
    };

    submit_batch();  // poisoned: int8 answers, then StepDown
    EXPECT_EQ(server.rung(), 1u);
    EXPECT_EQ(server.rung_name(), "int8");
    submit_batch();  // clean on int8: healthy window 1
    EXPECT_EQ(server.rung(), 1u);
    submit_batch();  // healthy window 2 → StepUp
    EXPECT_EQ(server.rung(), 0u);
    EXPECT_EQ(server.rung_name(), "fp32");
    submit_batch();  // back on fp32

    // Built without a braced literal: gcc 12 -O3 -march=native
    // miscompiles this particular 16-element initializer_list
    // (broadcasts the first lane), so spell it out at runtime.
    std::vector<std::uint32_t> want(12, 1);
    want.resize(16, 0);
    EXPECT_EQ(rung_of, want);
    // int8's salt shifts the offset token, so the answering rung is
    // visible in the delivered lines too.
    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.degrade.steps_down"), 1u);
    EXPECT_EQ(reg.counter("serve.degrade.steps_up"), 1u);
    EXPECT_EQ(reg.counter("serve.degrade.predictor_faults"), 1u);
    EXPECT_EQ(reg.counter("serve.degrade.fp32.responses"), 4u);
    EXPECT_EQ(reg.counter("serve.degrade.int8.responses"), 12u);
    EXPECT_EQ(reg.counter("serve.degrade.heuristic.responses"), 0u);
}

TEST_F(ServeLadder, EveryPredictorFaultedFallsToHeuristic)
{
    // Poison every batch: both stub rungs fail their finiteness check
    // and the terminal heuristic must answer — it cannot fault.
    fault_injector().install(
        FaultPlan::parse("serve_poison@batch=0:every=1"));
    StubPredictor fp32(4, /*salt=*/0);
    HeuristicEngine heuristic("stream_group", 2);
    std::vector<EngineRung> rungs;
    rungs.push_back({"fp32", &fp32, nullptr, {}});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});
    ServeConfig sc;
    sc.max_batch = 2;
    sc.degrade.window = 0;  // pin the ladder: per-batch fallback only
    PrefetchServer server(std::move(rungs), sc);

    for (std::uint64_t i = 0; i < 8; ++i)
        server.submit(make_request(0, i, 4, 30, 0x40 + i));
    const auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 8u);
    for (const PrefetchResponse &r : ready)
        EXPECT_EQ(r.rung, 1u);
    EXPECT_EQ(server.rung(), 0u);  // window 0: monitor never verdicts

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.degrade.heuristic.responses"), 8u);
    EXPECT_EQ(reg.counter("serve.degrade.predictor_faults"), 4u);
}

TEST_F(ServeLadder, CleanLadderMatchesSingleEngineServer)
{
    // With no fault plan and default thresholds, the ladder server
    // must deliver byte-for-byte the responses the plain single-engine
    // server delivers, and never leave rung 0.
    StubPredictor solo(4);
    ServeConfig sc;
    sc.max_batch = 4;
    PrefetchServer plain(solo, sc);

    StubPredictor fp32(4, /*salt=*/0);
    StubPredictor int8(4, /*salt=*/8);
    HeuristicEngine heuristic("stream_group", 2);
    std::vector<EngineRung> rungs;
    rungs.push_back({"fp32", &fp32, nullptr, {}});
    rungs.push_back({"int8", &int8, nullptr, {}});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});
    PrefetchServer ladder(std::move(rungs), sc);

    for (std::uint64_t i = 0; i < 11; ++i) {
        const auto req = make_request(i % 3, i / 3, 4,
                                      40 + static_cast<int>(i % 5),
                                      0x1000 + i, /*degree=*/2);
        EXPECT_EQ(plain.submit(req), SubmitResult::Accepted);
        EXPECT_EQ(ladder.submit(req), SubmitResult::Accepted);
    }
    plain.flush();
    ladder.flush();
    const auto a = plain.take_ready();
    const auto b = ladder.take_ready();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].lines, b[i].lines);
        EXPECT_EQ(a[i].wait_ticks, b[i].wait_ticks);
        EXPECT_FALSE(b[i].expired);
        EXPECT_EQ(b[i].rung, 0u);
    }
    EXPECT_EQ(ladder.rung(), 0u);
    StatRegistry reg;
    ladder.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.degrade.steps_down"), 0u);
    EXPECT_EQ(reg.counter("serve.degrade.steps_up"), 0u);
}

TEST_F(ServeChaos, MisroutedResponsesAreRepairedBeforeDelivery)
{
    // Corrupt the routing tenant of every response (seed 0 ⇒ XOR 1):
    // the dispatcher must cross-check against the issuing request and
    // repair each one before it reaches ready_.
    fault_injector().install(
        FaultPlan::parse("serve_misroute@response=0:every=1"));
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 2;
    PrefetchServer server(pred, sc);
    for (std::uint64_t i = 0; i < 6; ++i)
        server.submit(make_request(5, i, 4, 10, 0x2));
    const auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 6u);
    for (const PrefetchResponse &r : ready)
        EXPECT_EQ(r.tenant, 5u);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.misroutes_repaired"), 6u);
}

}  // namespace
}  // namespace voyager
