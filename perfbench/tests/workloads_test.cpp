/**
 * Workload generation: the run seed shapes only the interleaving, so
 * the same seed gives the same requests in the same order and another
 * seed gives the same request set in a different order.
 */
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "serve/client.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"
#include "core/vocab.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace voyager;

std::vector<core::LlcAccess>
tiny_stream()
{
    const auto t =
        trace::gen::make_workload("bfs", trace::gen::Scale::Tiny, 1);
    return sim::extract_llc_stream(t, sim::tiny_sim_config());
}

using RequestKey =
    std::tuple<std::uint32_t, std::uint64_t, std::vector<std::int32_t>,
               std::vector<std::int32_t>, std::vector<std::int32_t>, Addr>;

/** Requests in submit order under one schedule. */
std::vector<RequestKey>
requests(const std::vector<std::vector<sim::LlcAccess>> &slices,
         const core::Vocabulary &vocab,
         const std::vector<std::uint32_t> &schedule)
{
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0; t < slices.size(); ++t)
        clients.emplace_back(t, slices[t], vocab, 8, 2);
    std::vector<RequestKey> out;
    for (const std::uint32_t t : schedule) {
        const auto r = clients[t].next_request();
        out.emplace_back(r.tenant, r.seq, r.pc, r.page, r.offset,
                         r.prev_line);
    }
    return out;
}

TEST(Workloads, ScheduleCoversEveryRequestOnce)
{
    const std::vector<std::size_t> sizes = {5, 0, 7, 3};
    const auto s = tenant_schedule(1, 0, sizes);
    ASSERT_EQ(s.size(), 15u);
    for (std::uint32_t t = 0; t < sizes.size(); ++t)
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(s.begin(), s.end(), t)),
                  sizes[t]);
}

TEST(Workloads, SameSeedSameRequestsOtherSeedOtherInterleaving)
{
    const auto stream = tiny_stream();
    const auto vocab = core::Vocabulary::build(stream);
    const auto slices = tenant_slices(stream, 100, 4, 300);
    const std::vector<std::size_t> sizes(4, 300);

    const auto a = requests(slices, vocab, tenant_schedule(1, 0, sizes));
    const auto b = requests(slices, vocab, tenant_schedule(1, 0, sizes));
    const auto c = requests(slices, vocab, tenant_schedule(2, 0, sizes));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(tenant_schedule(1, 0, sizes), tenant_schedule(1, 1, sizes));

    auto sa = a;
    auto sc = c;
    std::sort(sa.begin(), sa.end());
    std::sort(sc.begin(), sc.end());
    EXPECT_EQ(sa, sc);
}

TEST(Workloads, SlicesAreDisjointAndHeldOut)
{
    std::vector<sim::LlcAccess> stream(1000);
    for (std::size_t i = 0; i < stream.size(); ++i)
        stream[i].index = i;
    const auto s = tenant_slices(stream, 200, 4, 150);
    ASSERT_EQ(s.size(), 4u);
    std::uint64_t prev_end = 200;
    for (const auto &slice : s) {
        ASSERT_EQ(slice.size(), 150u);
        EXPECT_GE(slice.front().index, prev_end);
        EXPECT_EQ(slice.back().index, slice.front().index + 149);
        prev_end = slice.back().index + 1;
    }
    EXPECT_EQ(prev_end, 1000u);
    EXPECT_THROW(tenant_slices(stream, 200, 4, 201), std::invalid_argument);
}

TEST(Workloads, PrefetchAccuracyLooksAheadWithinTheTenant)
{
    std::vector<sim::LlcAccess> slice(5);
    for (std::size_t i = 0; i < slice.size(); ++i)
        slice[i].line = 100 + i;
    std::vector<serve::PrefetchResponse> resp(5);
    for (std::size_t i = 0; i < resp.size(); ++i)
        resp[i].seq = i;
    resp[0].lines = {102, 999};  // 102 is touched two accesses later
    resp[3].lines = {103};       // its own access: not in the future
    resp[4].lines = {104};       // nothing follows the last access
    const auto [acc, served] = prefetch_accuracy({slice}, {resp}, 2);
    EXPECT_EQ(served, 4u);
    EXPECT_EQ(acc, 1u);
    const auto [acc1, served1] = prefetch_accuracy({slice}, {resp}, 1);
    EXPECT_EQ(served1, 4u);
    EXPECT_EQ(acc1, 0u);
}

TEST(Harness, MoveToQuietestCpuPinsOneAllowedCpu)
{
    cpu_set_t before;
    CPU_ZERO(&before);
    ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
    harness::move_to_quietest_cpu();
    cpu_set_t after;
    CPU_ZERO(&after);
    ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
    if (CPU_COUNT(&before) < 2) {
        EXPECT_TRUE(CPU_EQUAL(&before, &after));
        return;
    }
    cpu_set_t both;
    CPU_AND(&both, &before, &after);
    EXPECT_EQ(CPU_COUNT(&after), 1);
    EXPECT_EQ(CPU_COUNT(&both), 1);
    sched_setaffinity(0, sizeof(before), &before);
}

}  // namespace
}  // namespace perfbench
