/**
 * @file
 * Serving-layer unit + property tests (DESIGN.md §5.16): FIFO queue
 * semantics, micro-batcher padding/truncation, dispatcher batching
 * and tick accounting, SimulatedClient window construction against
 * encode_stream, the closed `serve.*` stats export — and the fuzz
 * suite: under random tenant counts, ragged window lengths, arrival
 * orders and batch sizes, no request is ever dropped, duplicated or
 * cross-delivered (every response's lines are recomputable from the
 * issuing request alone, see StubPredictor).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve_fixture.hpp"
#include "util/fault_injection.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace voyager {
namespace {

using serve::MicroBatcher;
using serve::PrefetchRequest;
using serve::PrefetchResponse;
using serve::PrefetchServer;
using serve::QueueAdmit;
using serve::RequestQueue;
using serve::ServeConfig;
using serve::ShedPolicy;
using serve::SimulatedClient;
using serve::SubmitResult;
using serve_test::StubPredictor;

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

TEST(ServeQueue, FifoAcrossPushesAndPartialTakes)
{
    RequestQueue q;
    EXPECT_TRUE(q.empty());
    for (std::uint64_t i = 0; i < 5; ++i)
        q.push(make_request(0, i, 1, 0, 0));
    EXPECT_EQ(q.depth(), 5u);

    std::vector<PrefetchRequest> out;
    EXPECT_EQ(q.take_up_to(2, out), 2u);
    q.push(make_request(0, 5, 1, 0, 0));
    EXPECT_EQ(q.take_up_to(10, out), 4u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.take_up_to(1, out), 0u);

    ASSERT_EQ(out.size(), 6u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i].seq, i) << "arrival order broken at " << i;
}

TEST(ServeQueue, CapacityBoundRejectsNewest)
{
    RequestQueue q(3);
    EXPECT_EQ(q.capacity(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(q.push(make_request(0, i, 1, 0, 0)),
                  QueueAdmit::Admitted);
    EXPECT_TRUE(q.full());
    // Overflow is a typed rejection, not silent growth.
    EXPECT_EQ(q.push(make_request(0, 3, 1, 0, 0)),
              QueueAdmit::Rejected);
    EXPECT_EQ(q.depth(), 3u);

    std::vector<PrefetchRequest> out;
    EXPECT_EQ(q.take_up_to(1, out), 1u);
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.push(make_request(0, 4, 1, 0, 0)),
              QueueAdmit::Admitted);
    out.clear();
    q.take_up_to(10, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 2u);
    EXPECT_EQ(out[2].seq, 4u);  // the rejected seq 3 never entered
}

TEST(ServeQueue, DropExpiredKeepsSurvivorOrder)
{
    RequestQueue q;
    for (std::uint64_t i = 0; i < 6; ++i) {
        PrefetchRequest r = make_request(0, i, 1, 0, 0);
        // Odd seqs expire at tick 5, even seqs at tick 20; seq 4
        // carries no deadline at all (deadline_tick = 0).
        r.deadline_tick = i == 4 ? 0 : (i % 2 ? 5 : 20);
        q.push(std::move(r));
    }
    std::vector<PrefetchRequest> dropped;
    EXPECT_EQ(q.drop_expired(/*now=*/10, dropped), 3u);
    ASSERT_EQ(dropped.size(), 3u);
    EXPECT_EQ(dropped[0].seq, 1u);
    EXPECT_EQ(dropped[1].seq, 3u);
    EXPECT_EQ(dropped[2].seq, 5u);

    std::vector<PrefetchRequest> rest;
    q.take_up_to(10, rest);
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(rest[0].seq, 0u);
    EXPECT_EQ(rest[1].seq, 2u);
    EXPECT_EQ(rest[2].seq, 4u);
}

TEST(MicroBatcherTest, FullWindowsPackUnchanged)
{
    MicroBatcher b(4);
    std::vector<PrefetchRequest> reqs;
    for (std::int32_t i = 0; i < 3; ++i)
        reqs.push_back(make_request(0, 0, 4, 100 + i, 0));
    core::VoyagerBatch batch;
    batch.labels.resize(2);  // stale labels must be cleared
    EXPECT_EQ(b.pack(reqs, batch), 0u);
    EXPECT_EQ(batch.batch, 3u);
    EXPECT_EQ(batch.seq, 4u);
    EXPECT_TRUE(batch.labels.empty());
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t t = 0; t < 4; ++t) {
            EXPECT_EQ(batch.pc[r * 4 + t], 3);
            EXPECT_EQ(batch.offset[r * 4 + t], 5);
        }
        EXPECT_EQ(batch.page[r * 4 + 3],
                  100 + static_cast<std::int32_t>(r));
    }
}

TEST(MicroBatcherTest, ShortWindowsLeftPadWithOov)
{
    MicroBatcher b(4);
    const std::vector<PrefetchRequest> reqs = {
        make_request(0, 0, 1, 42, 0),
        make_request(1, 0, 3, 43, 0),
    };
    core::VoyagerBatch batch;
    EXPECT_EQ(b.pack(reqs, batch), 2u);
    // Row 0: [pad pad pad 42-window], row 1: [pad 3-token window].
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(batch.page[t], 0);
        EXPECT_EQ(batch.pc[t], 0);
        EXPECT_EQ(batch.offset[t], 0);
    }
    EXPECT_EQ(batch.page[3], 42);
    EXPECT_EQ(batch.page[4 + 0], 0);
    EXPECT_EQ(batch.page[4 + 1], 9);
    EXPECT_EQ(batch.page[4 + 2], 9);
    EXPECT_EQ(batch.page[4 + 3], 43);
}

TEST(MicroBatcherTest, OverlongWindowsKeepMostRecentTokens)
{
    MicroBatcher b(2);
    PrefetchRequest r = make_request(0, 0, 5, 77, 0);
    r.page[3] = 76;  // the two newest tokens are [76, 77]
    core::VoyagerBatch batch;
    EXPECT_EQ(b.pack({r}, batch), 0u);
    EXPECT_EQ(batch.seq, 2u);
    EXPECT_EQ(batch.page[0], 76);
    EXPECT_EQ(batch.page[1], 77);
}

TEST(PrefetchServerTest, DispatchesWhenBatchFillsAndOnFlush)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 3;
    PrefetchServer server(pred, sc);

    for (std::uint64_t i = 0; i < 2; ++i)
        server.submit(make_request(7, i, 4, 50, 0x100 + i));
    EXPECT_EQ(server.pending(), 2u);
    EXPECT_TRUE(server.take_ready().empty());

    server.submit(make_request(7, 2, 4, 50, 0x102));
    EXPECT_EQ(server.pending(), 0u);
    auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ready[i].tenant, 7u);
        EXPECT_EQ(ready[i].seq, i);
        EXPECT_EQ(ready[i].batch_rows, 3u);
        // Submit i arrives at tick i; the batch dispatches after the
        // third submit (tick 3), so waits are 3, 2, 1.
        EXPECT_EQ(ready[i].wait_ticks, 3 - i);
        ASSERT_EQ(ready[i].lines.size(), 1u);
        EXPECT_EQ(ready[i].lines[0],
                  StubPredictor::expected_line(50, 0, 0x100 + i));
    }

    // A partial batch only moves on flush.
    server.submit(make_request(7, 3, 4, 50, 0x103));
    EXPECT_TRUE(server.take_ready().empty());
    server.flush();
    ready = server.take_ready();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].batch_rows, 1u);
    EXPECT_EQ(ready[0].seq, 3u);
}

TEST(PrefetchServerTest, DegreeAndDedupMatchThePredictOnLoop)
{
    StubPredictor pred(2);
    ServeConfig sc;
    sc.max_batch = 1;
    PrefetchServer server(pred, sc);
    // degree=3 plus core::kDecodeOverFetch fetches 5 candidates; the
    // stub's lines are distinct per rank, so exactly 3 come back.
    server.submit(make_request(1, 0, 2, 8, 0xABC, /*degree=*/3));
    auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 1u);
    ASSERT_EQ(ready[0].lines.size(), 3u);
    for (std::int32_t j = 0; j < 3; ++j)
        EXPECT_EQ(ready[0].lines[j],
                  StubPredictor::expected_line(8, j, 0xABC));
}

TEST(PrefetchServerTest, ConstructorRejectsInvalidLadders)
{
    StubPredictor p4(4);
    StubPredictor other_p4(4);
    StubPredictor p8(8);
    serve::HeuristicEngine heur;
    ServeConfig zero_batch;
    zero_batch.max_batch = 0;
    const struct
    {
        const char *what;
        std::vector<serve::EngineRung> rungs;
        ServeConfig cfg;
    } cases[] = {
        {"max_batch 0", {{"a", &p4, nullptr, {}}}, zero_batch},
        {"empty ladder", {}, {}},
        {"no predictor rung", {{"h", nullptr, &heur, {}}}, {}},
        {"rung with both",
         {{"a", &p4, nullptr, {}}, {"b", &other_p4, &heur, {}}},
         {}},
        {"rung with neither",
         {{"a", &p4, nullptr, {}}, {"b", nullptr, nullptr, {}}},
         {}},
        {"seq_len mismatch",
         {{"a", &p4, nullptr, {}}, {"b", &p8, nullptr, {}}},
         {}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_THROW(PrefetchServer(c.rungs, c.cfg),
                     std::invalid_argument);
    }
    EXPECT_THROW(PrefetchServer(p4, zero_batch), std::invalid_argument);
    // The valid ladder built from the same pieces constructs.
    EXPECT_NO_THROW(PrefetchServer(
        std::vector<serve::EngineRung>{{"a", &p4, nullptr, {}},
                                       {"b", &other_p4, nullptr, {}},
                                       {"h", nullptr, &heur, {}}}));
}

TEST(PrefetchServerTest, HeuristicRungRejectsZeroDegreeAtConstruction)
{
    try {
        serve::HeuristicEngine zero(0);
        FAIL() << "HeuristicEngine accepted degree 0";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("degree"), std::string::npos)
            << e.what();
    }
}

TEST(PrefetchServerTest, ExportsClosedServeNamespace)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 2;
    PrefetchServer server(pred, sc);
    for (std::uint64_t i = 0; i < 5; ++i)
        server.submit(
            make_request(static_cast<std::uint32_t>(i % 2), i,
                         /*window=*/i % 2 ? 4 : 2, 30, 0x40 + i));
    server.flush();
    server.take_ready();

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.requests"), 5u);
    EXPECT_EQ(reg.counter("serve.responses"), 5u);
    EXPECT_EQ(reg.counter("serve.batches"), 3u);
    EXPECT_EQ(reg.counter("serve.flushes"), 1u);
    EXPECT_EQ(reg.counter("serve.padded_rows"), 3u);
    EXPECT_EQ(reg.counter("serve.lines"), 5u);
    EXPECT_EQ(reg.counter("serve.tenants"), 2u);
    EXPECT_EQ(reg.histogram("serve.batch_size", 0, 65, 65).total(),
              3u);
    EXPECT_EQ(reg.histogram("serve.queue_depth", 0, 256, 64).total(),
              5u);
    EXPECT_EQ(reg.histogram("serve.wait_ticks", 0, 256, 64).total(),
              5u);
    // Re-export is idempotent (assign semantics).
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.requests"), 5u);
    EXPECT_EQ(reg.histogram("serve.wait_ticks", 0, 256, 64).total(),
              5u);
}

TEST(MicroBatcherTest, ZeroWindowRowPacksAllPadding)
{
    // A ragged request whose lookahead truncated to zero tokens must
    // still occupy one fully-padded row (the OOV embedding), not
    // corrupt its neighbours.
    MicroBatcher b(4);
    const std::vector<PrefetchRequest> reqs = {
        make_request(0, 0, 0, 0, 0x55),
        make_request(1, 0, 4, 91, 0x66),
    };
    core::VoyagerBatch batch;
    EXPECT_EQ(b.pack(reqs, batch), 1u);
    EXPECT_EQ(batch.batch, 2u);
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(batch.pc[t], 0);
        EXPECT_EQ(batch.page[t], 0);
        EXPECT_EQ(batch.offset[t], 0);
    }
    EXPECT_EQ(batch.page[4 + 3], 91);
}

TEST(PrefetchServerTest, ZeroWindowRequestStillServed)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 1;
    PrefetchServer server(pred, sc);
    EXPECT_EQ(server.submit(make_request(3, 0, 0, 0, 0x77,
                                         /*degree=*/2)),
              SubmitResult::Accepted);
    auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 1u);
    // The stub sees the padded OOV page token (0) as the row's page.
    ASSERT_EQ(ready[0].lines.size(), 2u);
    for (std::int32_t j = 0; j < 2; ++j)
        EXPECT_EQ(ready[0].lines[j],
                  StubPredictor::expected_line(0, j, 0x77));
}

TEST(PrefetchServerTest, SubmitRejectsMismatchedWindowLengths)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 1;
    PrefetchServer server(pred, sc);
    PrefetchRequest short_pc = make_request(0, 0, 4, 10, 1);
    short_pc.pc.pop_back();
    PrefetchRequest long_page = make_request(0, 1, 4, 10, 2);
    long_page.page.push_back(10);
    PrefetchRequest short_offset = make_request(0, 2, 4, 10, 3);
    short_offset.offset.pop_back();
    EXPECT_THROW(server.submit(short_pc), std::invalid_argument);
    EXPECT_THROW(server.submit(long_page), std::invalid_argument);
    EXPECT_THROW(server.submit(short_offset), std::invalid_argument);
    // Nothing was queued or answered, and no tick elapsed: the next
    // valid request still arrives at tick 0.
    EXPECT_EQ(server.pending(), 0u);
    EXPECT_TRUE(server.take_ready().empty());
    EXPECT_EQ(server.submit(make_request(0, 3, 4, 10, 4)),
              SubmitResult::Accepted);
    const auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].seq, 3u);
    EXPECT_EQ(ready[0].wait_ticks, 1u);
    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.requests"), 1u);
}

TEST(PrefetchServerTest, QueueCapacityShedsAndCounts)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 100;  // never auto-dispatch
    sc.queue_cap = 2;
    PrefetchServer server(pred, sc);
    EXPECT_EQ(server.submit(make_request(0, 0, 4, 10, 1)),
              SubmitResult::Accepted);
    EXPECT_EQ(server.submit(make_request(0, 1, 4, 10, 2)),
              SubmitResult::Accepted);
    EXPECT_EQ(server.submit(make_request(0, 2, 4, 10, 3)),
              SubmitResult::ShedCapacity);
    server.flush();
    EXPECT_EQ(server.take_ready().size(), 2u);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.queue.cap"), 2u);
    EXPECT_EQ(reg.counter("serve.queue.shed"), 1u);
    EXPECT_EQ(reg.counter("serve.requests"), 3u);
    EXPECT_EQ(reg.counter("serve.responses"), 2u);
}

TEST(PrefetchServerTest, TenantQuotaShedsHotTenantOnly)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 100;
    sc.tenant_quota = 2;
    PrefetchServer server(pred, sc);
    EXPECT_EQ(server.submit(make_request(1, 0, 4, 10, 1)),
              SubmitResult::Accepted);
    EXPECT_EQ(server.submit(make_request(1, 1, 4, 10, 2)),
              SubmitResult::Accepted);
    // Tenant 1 is at its quota; tenant 2 is not affected.
    EXPECT_EQ(server.submit(make_request(1, 2, 4, 10, 3)),
              SubmitResult::ShedQuota);
    EXPECT_EQ(server.submit(make_request(2, 0, 4, 10, 4)),
              SubmitResult::Accepted);
    server.flush();
    EXPECT_EQ(server.take_ready().size(), 3u);
    // Dispatch drained tenant 1's pending count, so it may submit
    // again.
    EXPECT_EQ(server.submit(make_request(1, 3, 4, 10, 5)),
              SubmitResult::Accepted);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.queue.shed_quota"), 1u);
}

TEST(PrefetchServerTest, DeadlineSlackAndMissExported)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 2;
    sc.deadline_ticks = 8;
    PrefetchServer server(pred, sc);
    server.submit(make_request(0, 0, 4, 10, 1));
    server.submit(make_request(0, 1, 4, 10, 2));
    auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 2u);
    EXPECT_FALSE(ready[0].expired);
    EXPECT_FALSE(ready[1].expired);

    StatRegistry reg;
    server.export_stats(reg);
    // Dispatch at tick 2: slacks are (0+8)-2 = 6 and (1+8)-2 = 7.
    EXPECT_EQ(reg.counter("serve.deadline.met"), 2u);
    EXPECT_EQ(reg.counter("serve.deadline.miss"), 0u);
    EXPECT_EQ(
        reg.histogram("serve.deadline.slack", 0, 256, 64).total(),
        2u);
}

TEST(PrefetchServerTest, DropExpiredPolicyEvictsDeadRequests)
{
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 100;
    sc.queue_cap = 2;
    sc.deadline_ticks = 1;
    sc.shed_policy = ShedPolicy::DropExpired;
    PrefetchServer server(pred, sc);
    server.submit(make_request(0, 0, 4, 10, 1));  // deadline tick 1
    server.submit(make_request(0, 1, 4, 10, 2));  // deadline tick 2
    // Tick 3 at admission: both queued deadlines have passed, so the
    // DropExpired policy evicts them instead of rejecting.
    EXPECT_EQ(server.submit(make_request(0, 2, 4, 10, 3)),
              SubmitResult::Accepted);
    auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 2u);
    for (const auto &r : ready) {
        EXPECT_TRUE(r.expired);
        EXPECT_TRUE(r.lines.empty());
    }
    EXPECT_EQ(server.pending(), 1u);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.queue.dropped_expired"), 2u);
    EXPECT_EQ(reg.counter("serve.deadline.miss"), 2u);
    EXPECT_EQ(reg.counter("serve.queue.shed"), 0u);
}

TEST(PrefetchServerTest, AllExpiredExactBatchSkipsThePredictor)
{
    // A stall pins the dispatcher, a second full batch goes stale
    // behind it, and the flush then forms a batch of exactly
    // max_batch all-expired rows — which must never reach the
    // predictor.
    fault_injector().install(
        FaultPlan::parse("serve_stall@batch=0:x=40"));
    StubPredictor pred(4);
    ServeConfig sc;
    sc.max_batch = 4;
    sc.deadline_ticks = 4;
    PrefetchServer server(pred, sc);

    // Batch 0 dispatches at tick 4 (deadlines 4-7, none expired) and
    // trips the stall.
    for (std::uint64_t i = 0; i < 4; ++i)
        server.submit(make_request(0, i, 4, 20, 0x10 + i));
    EXPECT_EQ(pred.calls(), 1u);
    EXPECT_TRUE(server.stalled());
    EXPECT_EQ(server.take_ready().size(), 4u);

    // Seqs 4-11 (deadlines 8-15) queue behind the stall; by the last
    // submit the tick is 12, so seqs 4-7 are all past deadline.
    for (std::uint64_t i = 4; i < 12; ++i)
        server.submit(make_request(0, i, 4, 20, 0x10 + i));
    EXPECT_EQ(server.pending(), 8u);
    EXPECT_EQ(pred.calls(), 1u);

    server.flush();  // tick 12: seqs 4-7 expired, 8-11 still live
    const auto ready = server.take_ready();
    ASSERT_EQ(ready.size(), 8u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(ready[i].expired);
        EXPECT_TRUE(ready[i].lines.empty());
        EXPECT_EQ(ready[i].batch_rows, 4u);
    }
    for (std::size_t i = 4; i < 8; ++i) {
        EXPECT_FALSE(ready[i].expired);
        EXPECT_FALSE(ready[i].lines.empty());
    }
    // The all-expired batch never ran a forward; the live remainder
    // ran exactly one.
    EXPECT_EQ(pred.calls(), 2u);

    StatRegistry reg;
    server.export_stats(reg);
    EXPECT_EQ(reg.counter("serve.expired_rows"), 4u);
    EXPECT_EQ(reg.counter("serve.stall_ticks"), 40u);
    fault_injector().clear();
}

TEST(SimulatedClientTest, WindowsMirrorEncodeStream)
{
    const auto stream = serve_test::serve_cyclic_stream(40, 8, 3);
    const auto vocab = core::Vocabulary::build(stream);
    const auto encoded = core::encode_stream(stream, vocab);
    constexpr std::size_t kSeqLen = 4;

    SimulatedClient client(0, stream, vocab, kSeqLen, 2);
    std::size_t i = 0;
    while (!client.done()) {
        const PrefetchRequest r = client.next_request();
        EXPECT_EQ(r.seq, i);
        EXPECT_EQ(r.prev_line, stream[i].line);
        const std::size_t w = std::min(i + 1, kSeqLen);
        ASSERT_EQ(r.page.size(), w);
        for (std::size_t t = 0; t < w; ++t) {
            const std::size_t s = i + 1 - w + t;
            EXPECT_EQ(r.pc[t], encoded.pc[s]);
            EXPECT_EQ(r.page[t], encoded.page[s]);
            EXPECT_EQ(r.offset[t], encoded.offset[s]);
        }
        ++i;
    }
    EXPECT_EQ(i, stream.size());
}

/**
 * The fuzz property: for any tenant population, per-tenant request
 * counts, window lengths, degrees, batch size and arrival
 * interleaving, every tenant receives exactly one response per issued
 * request, in issue order, whose lines are the ones its own request
 * implies. That simultaneously rules out drops (counts), duplicates
 * (counts + order) and cross-delivery (lines encode the issuing
 * request's newest page token and prev_line).
 */
TEST(ServeFuzz, NeverDropsDuplicatesOrCrossDelivers)
{
    constexpr std::size_t kIters = 150;
    for (std::size_t iter = 0; iter < kIters; ++iter) {
        Rng rng(0xF00D + iter);
        const std::size_t seq_len = 1 + rng.next_below(6);
        const std::size_t n_tenants = 1 + rng.next_below(6);
        StubPredictor pred(seq_len);
        ServeConfig sc;
        sc.max_batch = 1 + rng.next_below(9);
        PrefetchServer server(pred, sc);

        // Pre-plan each tenant's request sequence.
        std::vector<std::vector<PrefetchRequest>> plans(n_tenants);
        for (std::uint32_t t = 0; t < n_tenants; ++t) {
            const std::size_t n = rng.next_below(21);
            for (std::uint64_t s = 0; s < n; ++s) {
                const std::size_t window =
                    1 + rng.next_below(2 * seq_len);
                const auto last_page = static_cast<std::int32_t>(
                    (t << 12) | (s & 0xFFF));
                const Addr prev = t * 7919 + s * 31 + 1;
                plans[t].push_back(make_request(
                    t, s, window, last_page, prev,
                    1 + static_cast<std::uint32_t>(
                            rng.next_below(3))));
            }
        }

        // Random arrival interleaving, routing after every submit.
        std::vector<std::vector<PrefetchResponse>> got(n_tenants);
        const auto route = [&](std::vector<PrefetchResponse> rs) {
            for (auto &r : rs) {
                ASSERT_LT(r.tenant, n_tenants);
                got[r.tenant].push_back(std::move(r));
            }
        };
        std::vector<std::size_t> next(n_tenants, 0);
        std::vector<std::uint32_t> live;
        for (std::uint32_t t = 0; t < n_tenants; ++t)
            if (!plans[t].empty())
                live.push_back(t);
        while (!live.empty()) {
            const std::size_t pick = rng.next_below(live.size());
            const std::uint32_t t = live[pick];
            server.submit(plans[t][next[t]++]);
            if (next[t] == plans[t].size()) {
                live[pick] = live.back();
                live.pop_back();
            }
            route(server.take_ready());
        }
        server.flush();
        route(server.take_ready());

        for (std::uint32_t t = 0; t < n_tenants; ++t) {
            ASSERT_EQ(got[t].size(), plans[t].size())
                << "iter " << iter << " tenant " << t
                << ": dropped or duplicated responses";
            for (std::size_t s = 0; s < got[t].size(); ++s) {
                const PrefetchResponse &r = got[t][s];
                const PrefetchRequest &q = plans[t][s];
                ASSERT_EQ(r.seq, q.seq)
                    << "iter " << iter << ": out-of-order delivery";
                ASSERT_EQ(r.lines.size(), q.degree)
                    << "iter " << iter;
                for (std::size_t j = 0; j < r.lines.size(); ++j)
                    ASSERT_EQ(r.lines[j],
                              StubPredictor::expected_line(
                                  q.page.back(),
                                  static_cast<std::int32_t>(j),
                                  q.prev_line))
                        << "iter " << iter
                        << ": cross-delivered prediction";
            }
        }
    }
}

}  // namespace
}  // namespace voyager
