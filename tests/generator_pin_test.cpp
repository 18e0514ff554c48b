/**
 * @file
 * Byte-for-byte pins of the workload generators. Every registered
 * workload's trace is hashed at Tiny and Small scale (bfs and mcf also
 * at Paper scale), and the two building blocks whose fast paths could
 * drift silently, the CSR graph builder and the Zipf sampler, are
 * checked against the plain sort-based and binary-search references
 * kept here. A generator change that adds, drops or reorders a single
 * random draw changes a hash.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "trace/gen/graph.hpp"
#include "trace/gen/workloads.hpp"
#include "util/random.hpp"

namespace voyager::trace::gen {
namespace {

/** FNV-1a over every access field (little-endian) and the
 *  instruction count. */
std::uint64_t
trace_hash(const Trace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const MemoryAccess &a : t.accesses()) {
        mix(a.instr_id, 8);
        mix(a.pc, 8);
        mix(a.addr, 8);
        mix(a.is_load ? 1 : 0, 1);
    }
    mix(t.instructions(), 8);
    return h;
}

struct HashPin
{
    const char *name;
    Scale scale;
    std::uint64_t hash;
};

/** Hashes of make_workload(name, scale, 1), recorded before the
 *  generators' fast paths (counting-sort graphs, guided Zipf draws,
 *  the astar deque) went in. */
const HashPin kHashPins[] = {
    {"astar", Scale::Tiny, 0xf6bf8a51142f9847ull},
    {"bfs", Scale::Tiny, 0x524384948d46b5b4ull},
    {"cc", Scale::Tiny, 0xf917dec4414726dcull},
    {"mcf", Scale::Tiny, 0x12219e1a1928925bull},
    {"omnetpp", Scale::Tiny, 0x75681f09ba207c4ull},
    {"pr", Scale::Tiny, 0xe05c85a18b1320b3ull},
    {"soplex", Scale::Tiny, 0x6ef01bd947d78bdcull},
    {"sphinx", Scale::Tiny, 0x855a179760761829ull},
    {"xalancbmk", Scale::Tiny, 0x57ff3b40fe460b7aull},
    {"search", Scale::Tiny, 0x52aadfa47375598cull},
    {"ads", Scale::Tiny, 0xfbd77590545e8810ull},
    {"xf_prefill", Scale::Tiny, 0xd397c848daf3a06dull},
    {"xf_decode", Scale::Tiny, 0xb93f489111741cdaull},
    {"xf_mixed", Scale::Tiny, 0xded7e85fa588923bull},
    {"astar", Scale::Small, 0x4c38a3d546d19a69ull},
    {"bfs", Scale::Small, 0x939d515b83077166ull},
    {"cc", Scale::Small, 0xa9ef1fac0778d31bull},
    {"mcf", Scale::Small, 0x58798101cdd2f98ull},
    {"omnetpp", Scale::Small, 0xd83dcda9d2e9453dull},
    {"pr", Scale::Small, 0x5e0861309705d964ull},
    {"soplex", Scale::Small, 0x91569bf8d86e7c1eull},
    {"sphinx", Scale::Small, 0x39089a8f5bb4913aull},
    {"xalancbmk", Scale::Small, 0x3aea55cdab515755ull},
    {"search", Scale::Small, 0x4a629d4507caf751ull},
    {"ads", Scale::Small, 0x559a702bfe9222full},
    {"xf_prefill", Scale::Small, 0x84e202c6e7d7e204ull},
    {"xf_decode", Scale::Small, 0x6f69aa9312fb101ull},
    {"xf_mixed", Scale::Small, 0x322763f53e45ab21ull},
    {"bfs", Scale::Paper, 0x509edf24ef81c859ull},
    {"mcf", Scale::Paper, 0xb6584098f8b4d915ull},
};

std::string
scale_name(Scale s)
{
    return s == Scale::Tiny ? "tiny" : s == Scale::Small ? "small"
                                                          : "paper";
}

void
PrintTo(const HashPin &p, std::ostream *os)
{
    *os << p.name << " at " << scale_name(p.scale);
}

class TraceHash : public ::testing::TestWithParam<HashPin>
{
};

TEST_P(TraceHash, MatchesPin)
{
    const HashPin &pin = GetParam();
    const Trace t = make_workload(pin.name, pin.scale, 1);
    EXPECT_EQ(trace_hash(t), pin.hash)
        << "{\"" << pin.name << "\", Scale::"
        << (pin.scale == Scale::Tiny    ? "Tiny"
            : pin.scale == Scale::Small ? "Small"
                                        : "Paper")
        << ", 0x" << std::hex << trace_hash(t) << "ull},";
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorPins, TraceHash, ::testing::ValuesIn(kHashPins),
    [](const ::testing::TestParamInfo<HashPin> &info) {
        return scale_name(info.param.scale) + "_" + info.param.name;
    });

TEST(GeneratorPins, EveryWorkloadPinnedAtTinyAndSmall)
{
    std::set<std::pair<std::string, Scale>> pinned;
    for (const HashPin &p : kHashPins)
        pinned.emplace(p.name, p.scale);
    for (const auto &name : all_benchmarks()) {
        EXPECT_TRUE(pinned.count({name, Scale::Tiny})) << name;
        EXPECT_TRUE(pinned.count({name, Scale::Small})) << name;
    }
    EXPECT_TRUE(pinned.count({"bfs", Scale::Paper}));
    EXPECT_TRUE(pinned.count({"mcf", Scale::Paper}));
}

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/** The CSR arrays the sort-based builder produces: one global sort of
 *  the edge pairs, dedup, then a scatter into both directions. */
struct RefCsr
{
    std::vector<std::uint32_t> out_offsets, in_offsets;
    std::vector<NodeId> out_neigh, in_neigh;
};

RefCsr
reference_csr(NodeId n, EdgeList edges)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    RefCsr r;
    r.out_offsets.assign(n + 1, 0);
    r.in_offsets.assign(n + 1, 0);
    for (const auto &[u, v] : edges) {
        ++r.out_offsets[u + 1];
        ++r.in_offsets[v + 1];
    }
    for (NodeId i = 0; i < n; ++i) {
        r.out_offsets[i + 1] += r.out_offsets[i];
        r.in_offsets[i + 1] += r.in_offsets[i];
    }
    r.out_neigh.resize(edges.size());
    r.in_neigh.resize(edges.size());
    std::vector<std::uint32_t> out_pos(r.out_offsets.begin(),
                                       r.out_offsets.end() - 1);
    std::vector<std::uint32_t> in_pos(r.in_offsets.begin(),
                                      r.in_offsets.end() - 1);
    for (const auto &[u, v] : edges) {
        r.out_neigh[out_pos[u]++] = v;
        r.in_neigh[in_pos[v]++] = u;
    }
    return r;
}

void
expect_matches_reference(NodeId n, const EdgeList &edges)
{
    const RefCsr ref = reference_csr(n, edges);
    const Graph g(n, edges);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.out_offsets(), ref.out_offsets);
    EXPECT_EQ(g.out_neigh(), ref.out_neigh);
    EXPECT_EQ(g.in_offsets(), ref.in_offsets);
    EXPECT_EQ(g.in_neigh(), ref.in_neigh);
}

TEST(GeneratorPins, GraphMatchesSortReferenceUniform)
{
    // Sources and targets from the lower half only, so the upper half
    // has degree 0 in both directions; every 7th edge repeats an
    // earlier one.
    Rng rng(11);
    const NodeId n = 3000;
    EdgeList edges;
    for (int i = 0; i < 20000; ++i) {
        if (i % 7 == 6) {
            edges.push_back(edges[rng.next_below(edges.size())]);
            continue;
        }
        edges.emplace_back(static_cast<NodeId>(rng.next_below(n / 2)),
                           static_cast<NodeId>(rng.next_below(n / 2)));
    }
    expect_matches_reference(n, edges);
}

TEST(GeneratorPins, GraphMatchesSortReferencePowerLaw)
{
    // Zipf targets concentrate on a few hubs, so duplicate pairs are
    // common; odd nodes have no out-edges.
    Rng rng(12);
    const NodeId n = 4096;
    ZipfSampler zipf(n, 1.1);
    EdgeList edges;
    for (int i = 0; i < 40000; ++i) {
        const auto u = static_cast<NodeId>(2 * rng.next_below(n / 2));
        edges.emplace_back(u, static_cast<NodeId>(zipf.sample(rng)));
    }
    expect_matches_reference(n, edges);
}

TEST(GeneratorPins, GraphMatchesSortReferenceEdgeCases)
{
    expect_matches_reference(1, {});
    expect_matches_reference(5, {});
    expect_matches_reference(4, {{3, 0}, {3, 0}, {0, 3}, {3, 1}, {3, 0}});
}

/** The Zipf CDF exactly as the sampler builds it. */
std::vector<double>
reference_cdf(std::size_t n, double s)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
    }
    for (auto &c : cdf)
        c /= sum;
    return cdf;
}

TEST(GeneratorPins, ZipfMatchesLowerBoundReference)
{
    for (const std::size_t n : {1u, 2u, 3u, 1000u, 131072u}) {
        for (const double s : {0.0, 0.8, 1.2}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
            const ZipfSampler z(n, s);
            ASSERT_EQ(z.population(), n);
            const std::vector<double> cdf = reference_cdf(n, s);
            Rng sampler_rng(n * 31 + static_cast<std::size_t>(s * 10));
            Rng ref_rng = sampler_rng;
            std::size_t mismatches = 0;
            for (int i = 0; i < 1000000; ++i) {
                const double u = ref_rng.next_double();
                const auto it =
                    std::lower_bound(cdf.begin(), cdf.end(), u);
                const std::size_t want =
                    it == cdf.end()
                        ? n - 1
                        : static_cast<std::size_t>(it - cdf.begin());
                const std::size_t got = z.sample(sampler_rng);
                if (got != want && mismatches++ < 5)
                    ADD_FAILURE() << "draw " << i << " u=" << u
                                  << " got " << got << " want " << want;
            }
            EXPECT_EQ(mismatches, 0u);
        }
    }
}

}  // namespace
}  // namespace voyager::trace::gen
