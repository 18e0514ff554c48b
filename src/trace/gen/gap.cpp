#include "trace/gen/gap.hpp"

#include <cmath>
#include <vector>

#include "trace/gen/recorder.hpp"

namespace voyager::trace::gen {

namespace {

/** Data-structure ids for the synthetic virtual address layout. */
enum DataId : std::uint32_t
{
    kOutOffsets = 0,
    kOutNeigh = 1,
    kInOffsets = 2,
    kInNeigh = 3,
    kScores = 4,
    kContrib = 5,
    kParent = 6,
    kQueue = 7,
    kComp = 8,
};

Addr
elem4(std::uint32_t structure, std::uint64_t index)
{
    return layout::data_base(structure) + index * 4;
}

Addr
elem8(std::uint32_t structure, std::uint64_t index)
{
    return layout::data_base(structure) + index * 8;
}

}  // namespace

Trace
make_pagerank_trace(const GapParams &p)
{
    Rng rng(p.seed);
    Graph g = make_powerlaw_graph(p.num_nodes, p.avg_degree, p.skew, rng);
    Trace t("pr");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    const NodeId n_nodes = g.num_nodes();
    std::vector<double> scores(n_nodes, 1.0 / n_nodes);
    std::vector<double> contrib(n_nodes, 0.0);
    constexpr double kDamp = 0.85;
    const double base_score = (1.0 - kDamp) / static_cast<double>(n_nodes);

    // Basic blocks/lines follow Fig. 13 of the paper.
    const Addr pc_contrib_load = layout::pc_of(0, 1);   // line 44: scores[n]
    const Addr pc_degree_load = layout::pc_of(0, 2);    // line 44: degree
    const Addr pc_contrib_store = layout::pc_of(0, 3);  // line 44 store
    const Addr pc_inoff_load = layout::pc_of(1, 1);     // line 47: in_offsets
    const Addr pc_neigh_load = layout::pc_of(1, 2);     // line 47: in_neigh
    const Addr pc_gather_load = layout::pc_of(1, 3);    // line 48: contrib[v]
    const Addr pc_score_load = layout::pc_of(2, 1);     // line 49: scores[u]
    const Addr pc_score_store = layout::pc_of(2, 2);    // line 50 store

    while (rec.recorded() < p.max_accesses) {
        // Phase 1 (lines 43-44): outgoing_contrib[n] = scores[n]/deg(n).
        for (NodeId n = 0; n < n_nodes && rec.recorded() < p.max_accesses;
             ++n) {
            rec.load(pc_contrib_load, elem8(kScores, n));
            rec.load(pc_degree_load, elem4(kOutOffsets, n));
            const auto deg = std::max<std::uint32_t>(1, g.out_degree(n));
            contrib[n] = scores[n] / deg;
            rec.store(pc_contrib_store, elem8(kContrib, n));
            rec.compute(p.compute_gap);
        }
        // Phase 2 (lines 45-51): pull contributions along in-edges.
        for (NodeId u = 0; u < n_nodes && rec.recorded() < p.max_accesses;
             ++u) {
            rec.load(pc_inoff_load, elem4(kInOffsets, u));
            double incoming = 0.0;
            const auto begin = g.in_offsets()[u];
            const auto end = g.in_offsets()[u + 1];
            for (auto e = begin;
                 e < end && rec.recorded() < p.max_accesses; ++e) {
                const NodeId v = g.in_neigh()[e];
                rec.load(pc_neigh_load, elem4(kInNeigh, e));
                // Line 48: the irregular, data-dependent gather.
                rec.load(pc_gather_load, elem8(kContrib, v));
                incoming += contrib[v];
                rec.compute(p.compute_gap);
            }
            rec.load(pc_score_load, elem8(kScores, u));
            scores[u] = base_score + kDamp * incoming;
            rec.store(pc_score_store, elem8(kScores, u));
            rec.compute(p.compute_gap);
        }
    }
    return t;
}

Trace
make_bfs_trace(const GapParams &p)
{
    Rng rng(p.seed);
    Graph g = make_uniform_graph(p.num_nodes, p.avg_degree, rng);
    Trace t("bfs");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    const NodeId n_nodes = g.num_nodes();
    const Addr pc_pop = layout::pc_of(4, 1);
    const Addr pc_off = layout::pc_of(4, 2);
    const Addr pc_neigh = layout::pc_of(4, 3);
    const Addr pc_parent = layout::pc_of(4, 4);   // irregular check
    const Addr pc_claim = layout::pc_of(4, 5);
    const Addr pc_push = layout::pc_of(4, 6);

    std::vector<std::int32_t> parent(n_nodes);
    NodeId source = 0;
    while (rec.recorded() < p.max_accesses) {
        std::fill(parent.begin(), parent.end(), -1);
        std::vector<NodeId> queue;
        queue.reserve(n_nodes);
        parent[source] = static_cast<std::int32_t>(source);
        queue.push_back(source);
        std::size_t head = 0;
        std::uint64_t qtail_addr = 0;
        while (head < queue.size() && rec.recorded() < p.max_accesses) {
            const NodeId u = queue[head];
            rec.load(pc_pop, elem4(kQueue, head));
            ++head;
            rec.load(pc_off, elem4(kOutOffsets, u));
            const auto begin = g.out_offsets()[u];
            const auto end = g.out_offsets()[u + 1];
            for (auto e = begin;
                 e < end && rec.recorded() < p.max_accesses; ++e) {
                const NodeId v = g.out_neigh()[e];
                rec.load(pc_neigh, elem4(kOutNeigh, e));
                rec.load(pc_parent, elem4(kParent, v));
                if (parent[v] < 0) {
                    parent[v] = static_cast<std::int32_t>(u);
                    rec.store(pc_claim, elem4(kParent, v));
                    rec.store(pc_push, elem4(kQueue, queue.size()));
                    queue.push_back(v);
                    ++qtail_addr;
                }
                rec.compute(p.compute_gap);
            }
        }
        source = static_cast<NodeId>((source + 7919) % n_nodes);
    }
    return t;
}

Trace
make_cc_trace(const GapParams &p)
{
    Rng rng(p.seed);
    Graph g = make_uniform_graph(p.num_nodes, p.avg_degree, rng);
    Trace t("cc");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    const NodeId n_nodes = g.num_nodes();
    const Addr pc_self = layout::pc_of(6, 1);
    const Addr pc_off = layout::pc_of(6, 2);
    const Addr pc_neigh = layout::pc_of(6, 3);
    const Addr pc_other = layout::pc_of(6, 4);    // irregular comp[v]
    const Addr pc_update = layout::pc_of(6, 5);

    std::vector<NodeId> comp(n_nodes);
    for (NodeId i = 0; i < n_nodes; ++i)
        comp[i] = i;
    bool changed = true;
    while (rec.recorded() < p.max_accesses) {
        if (!changed) {
            // Restart on a reshuffled labeling to keep the trace going.
            for (NodeId i = 0; i < n_nodes; ++i)
                comp[i] = (i * 2654435761u) % n_nodes;
        }
        changed = false;
        for (NodeId u = 0; u < n_nodes && rec.recorded() < p.max_accesses;
             ++u) {
            rec.load(pc_self, elem4(kComp, u));
            rec.load(pc_off, elem4(kOutOffsets, u));
            const auto begin = g.out_offsets()[u];
            const auto end = g.out_offsets()[u + 1];
            for (auto e = begin;
                 e < end && rec.recorded() < p.max_accesses; ++e) {
                const NodeId v = g.out_neigh()[e];
                rec.load(pc_neigh, elem4(kOutNeigh, e));
                rec.load(pc_other, elem4(kComp, v));
                if (comp[v] < comp[u]) {
                    comp[u] = comp[v];
                    rec.store(pc_update, elem4(kComp, u));
                    changed = true;
                }
                rec.compute(p.compute_gap);
            }
        }
    }
    return t;
}

}  // namespace voyager::trace::gen
