#include "trace/gen/graph.hpp"

#include <algorithm>
#include <cassert>

namespace voyager::trace::gen {

Graph::Graph(NodeId num_nodes,
             std::vector<std::pair<NodeId, NodeId>> edges)
    : num_nodes_(num_nodes)
{
    // Counting sort on the source, then sort and dedup each adjacency
    // list in place: the same arrays as one global sort + unique of
    // the pairs, without the O(E log E) sort.
    out_offsets_.assign(num_nodes_ + 1, 0);
    for (const auto &[u, v] : edges) {
        assert(u < num_nodes_ && v < num_nodes_);
        ++out_offsets_[u + 1];
    }
    for (NodeId n = 0; n < num_nodes_; ++n)
        out_offsets_[n + 1] += out_offsets_[n];
    out_neigh_.resize(edges.size());
    {
        std::vector<std::uint32_t> pos(out_offsets_.begin(),
                                       out_offsets_.end() - 1);
        for (const auto &[u, v] : edges)
            out_neigh_[pos[u]++] = v;
    }
    edges = {};

    // Compact each sorted, deduped list towards the front; offsets
    // are rewritten as the lists move.
    in_offsets_.assign(num_nodes_ + 1, 0);
    std::uint32_t write = 0;
    for (NodeId n = 0; n < num_nodes_; ++n) {
        const auto first = out_neigh_.begin() + out_offsets_[n];
        const auto last = out_neigh_.begin() + out_offsets_[n + 1];
        std::sort(first, last);
        const auto kept = std::unique(first, last);
        out_offsets_[n] = write;
        for (auto it = first; it != kept; ++it) {
            out_neigh_[write++] = *it;
            ++in_offsets_[*it + 1];
        }
    }
    out_offsets_[num_nodes_] = write;
    out_neigh_.resize(write);
    out_neigh_.shrink_to_fit();

    // In-CSR: visiting sources in increasing order lists each node's
    // in-neighbours sorted, as the pair sort did.
    for (NodeId n = 0; n < num_nodes_; ++n)
        in_offsets_[n + 1] += in_offsets_[n];
    in_neigh_.resize(write);
    std::vector<std::uint32_t> pos(in_offsets_.begin(),
                                   in_offsets_.end() - 1);
    for (NodeId u = 0; u < num_nodes_; ++u) {
        for (std::uint32_t e = out_offsets_[u]; e < out_offsets_[u + 1];
             ++e)
            in_neigh_[pos[out_neigh_[e]]++] = u;
    }
}

Graph
make_uniform_graph(NodeId num_nodes, double avg_degree, Rng &rng)
{
    assert(num_nodes > 1);
    const auto num_edges = static_cast<std::uint64_t>(
        avg_degree * static_cast<double>(num_nodes));
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(num_edges);
    for (std::uint64_t i = 0; i < num_edges; ++i) {
        const auto u = static_cast<NodeId>(rng.next_below(num_nodes));
        auto v = static_cast<NodeId>(rng.next_below(num_nodes));
        if (u == v)
            v = (v + 1) % num_nodes;
        edges.emplace_back(u, v);
    }
    return Graph(num_nodes, std::move(edges));
}

Graph
make_powerlaw_graph(NodeId num_nodes, double avg_degree, double skew,
                    Rng &rng)
{
    assert(num_nodes > 1);
    const auto num_edges = static_cast<std::uint64_t>(
        avg_degree * static_cast<double>(num_nodes));
    ZipfSampler zipf(num_nodes, skew);
    // Shuffle node ids so hub nodes are scattered in memory rather than
    // packed at the front of the property arrays.
    std::vector<NodeId> perm(num_nodes);
    for (NodeId i = 0; i < num_nodes; ++i)
        perm[i] = i;
    rng.shuffle(perm);
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(num_edges);
    for (std::uint64_t i = 0; i < num_edges; ++i) {
        const auto u = static_cast<NodeId>(rng.next_below(num_nodes));
        auto v = perm[zipf.sample(rng)];
        if (u == v)
            v = (v + 1) % num_nodes;
        edges.emplace_back(u, v);
    }
    return Graph(num_nodes, std::move(edges));
}

}  // namespace voyager::trace::gen
