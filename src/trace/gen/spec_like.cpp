#include "trace/gen/spec_like.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "trace/gen/recorder.hpp"
#include "util/random.hpp"

namespace voyager::trace::gen {

namespace {

/** Structure ids local to this file (distinct per generator by block). */
Addr
arr(std::uint32_t structure, std::uint64_t index, std::uint32_t elem_size)
{
    return layout::data_base(structure) + index * elem_size;
}

}  // namespace

Trace
make_mcf_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("mcf");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // Network simplex: scan arcs with a small stride; each arc names a
    // tail/head node whose struct is visited data-dependently. The node
    // arena grows each outer phase, so fresh pages keep appearing
    // (compulsory misses: mcf has the largest footprint in Table 2).
    const auto num_arcs = static_cast<std::size_t>(40000 *
                                                   p.footprint_scale);
    const auto nodes_per_region =
        static_cast<std::size_t>(4096 * p.footprint_scale);
    const Addr pc_arc = layout::pc_of(10, 1);
    const Addr pc_tail = layout::pc_of(10, 2);
    const Addr pc_head = layout::pc_of(10, 3);
    const Addr pc_pot = layout::pc_of(10, 4);
    const Addr pc_fresh = layout::pc_of(11, 1);

    std::vector<std::uint32_t> tails(num_arcs);
    std::vector<std::uint32_t> heads(num_arcs);
    std::size_t live_nodes = nodes_per_region;
    for (std::size_t i = 0; i < num_arcs; ++i) {
        tails[i] = static_cast<std::uint32_t>(rng.next_below(live_nodes));
        heads[i] = static_cast<std::uint32_t>(rng.next_below(live_nodes));
    }
    std::uint64_t fresh_cursor = 0;
    std::size_t phase = 0;
    while (rec.recorded() < p.max_accesses) {
        for (std::size_t i = 0;
             i < num_arcs && rec.recorded() < p.max_accesses; ++i) {
            // Arc structs are 64 B; scanning them is a stride-1 stream
            // of lines.
            rec.load(pc_arc, arr(20, i, 64));
            rec.load(pc_tail, arr(21, tails[i], 64));
            rec.load(pc_head, arr(21, heads[i], 64));
            rec.load(pc_pot, arr(22, heads[i], 8));
            rec.compute(p.compute_gap);
        }
        // Grow the arena: touch a run of never-seen lines (compulsory).
        for (std::size_t k = 0;
             k < nodes_per_region / 4 && rec.recorded() < p.max_accesses;
             ++k) {
            rec.load(pc_fresh, arr(23, fresh_cursor, 64));
            ++fresh_cursor;
            rec.compute(1);
        }
        // Rewire a slice of arcs toward the newly allocated nodes so the
        // correlation tables must keep adapting.
        ++phase;
        live_nodes += nodes_per_region / 8;
        for (std::size_t i = phase % 16; i < num_arcs; i += 16)
            heads[i] =
                static_cast<std::uint32_t>(rng.next_below(live_nodes));
    }
    return t;
}

Trace
make_omnetpp_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("omnetpp");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // Discrete-event simulation: a binary heap of events plus recycled
    // message objects drawn from pools. Heap walks are log-depth
    // semi-regular; message payloads are temporally correlated because
    // pool slots recycle.
    const auto heap_cap = static_cast<std::size_t>(8192 *
                                                   p.footprint_scale);
    const auto pool_objs = static_cast<std::size_t>(16384 *
                                                    p.footprint_scale);
    const Addr pc_heap_up = layout::pc_of(12, 1);
    const Addr pc_heap_down = layout::pc_of(12, 2);
    const Addr pc_msg = layout::pc_of(12, 3);
    const Addr pc_gate = layout::pc_of(12, 4);
    const Addr pc_sched = layout::pc_of(12, 5);

    std::vector<std::uint32_t> heap;  // message ids ordered by "time"
    heap.reserve(heap_cap);
    std::vector<std::uint32_t> free_list;
    for (std::size_t i = 0; i < pool_objs; ++i)
        free_list.push_back(static_cast<std::uint32_t>(i));
    const std::size_t num_modules = 512;

    auto heap_elem = [&](std::size_t i) { return arr(30, i, 16); };

    while (rec.recorded() < p.max_accesses) {
        // Pop min: root then sift-down path.
        if (!heap.empty()) {
            const std::uint32_t msg = heap.front();
            rec.load(pc_heap_down, heap_elem(0));
            std::size_t i = 0;
            while (2 * i + 1 < heap.size()) {
                rec.load(pc_heap_down, heap_elem(2 * i + 1));
                if (2 * i + 2 < heap.size())
                    rec.load(pc_heap_down, heap_elem(2 * i + 2));
                i = 2 * i + 1 + rng.next_below(2);
                if (i >= heap.size())
                    break;
            }
            heap.front() = heap.back();
            heap.pop_back();
            // Handle the message: touch its object and a module gate.
            rec.load(pc_msg, arr(31, msg, 128));
            const auto module = msg % num_modules;
            rec.load(pc_gate, arr(32, module, 256));
            free_list.push_back(msg);
            rec.compute(p.compute_gap * 3);
        }
        // Schedule 1-2 new events: allocate from pool, sift-up path.
        const int births = heap.empty() ? 2 : 1 + (rng.next_below(3) == 0);
        for (int b = 0; b < births && !free_list.empty(); ++b) {
            const std::uint32_t msg = free_list.back();
            free_list.pop_back();
            rec.store(pc_sched, arr(31, msg, 128));
            heap.push_back(msg);
            std::size_t i = heap.size() - 1;
            while (i > 0) {
                rec.load(pc_heap_up, heap_elem((i - 1) / 2));
                if (rng.next_below(3) == 0)
                    break;
                i = (i - 1) / 2;
            }
            rec.compute(p.compute_gap);
        }
        if (heap.size() > heap_cap)
            heap.resize(heap_cap / 2);
    }
    return t;
}

Trace
make_soplex_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("soplex");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // Simplex pricing: walk sparse columns (index + value arrays), then
    // the Fig. 16 ratio-test pattern on upd/ub/lb/vec indexed by
    // `leave`, where vec[leave] is loaded by one of two PCs depending
    // on a data-dependent branch.
    const auto dim = static_cast<std::size_t>(24000 * p.footprint_scale);
    const auto num_cols = static_cast<std::size_t>(2000 *
                                                   p.footprint_scale);
    const std::size_t avg_nnz = 24;

    const Addr pc_colptr = layout::pc_of(14, 1);
    const Addr pc_rowidx = layout::pc_of(14, 2);
    const Addr pc_value = layout::pc_of(14, 3);
    const Addr pc_dense = layout::pc_of(14, 4);
    // Fig. 16 lines 123-127.
    const Addr pc_upd = layout::pc_of(15, 3);     // line 123
    const Addr pc_ub = layout::pc_of(15, 5);      // line 125 (ub)
    const Addr pc_vec_then = layout::pc_of(15, 6);  // line 125 (vec)
    const Addr pc_lb = layout::pc_of(15, 7);      // line 127 (lb)
    const Addr pc_vec_else = layout::pc_of(15, 8);  // line 127 (vec)

    // Static sparse matrix in CSC form.
    std::vector<std::vector<std::uint32_t>> cols(num_cols);
    for (auto &col : cols) {
        const std::size_t nnz = 1 + rng.next_below(2 * avg_nnz);
        col.reserve(nnz);
        std::uint32_t row = static_cast<std::uint32_t>(
            rng.next_below(dim));
        for (std::size_t k = 0; k < nnz; ++k) {
            col.push_back(row % dim);
            row += 1 + static_cast<std::uint32_t>(rng.next_below(97));
        }
    }

    std::uint64_t nnz_cursor = 0;
    std::vector<std::uint64_t> col_start(num_cols);
    for (std::size_t c = 0; c < num_cols; ++c) {
        col_start[c] = nnz_cursor;
        nnz_cursor += cols[c].size();
    }

    while (rec.recorded() < p.max_accesses) {
        // Pricing pass: scan a pseudo-random subset of columns in a
        // fixed order (simplex revisits the same candidate set).
        for (std::size_t c = 0;
             c < num_cols && rec.recorded() < p.max_accesses; c += 3) {
            rec.load(pc_colptr, arr(40, c, 8));
            const auto &col = cols[c];
            for (std::size_t k = 0; k < col.size(); ++k) {
                rec.load(pc_rowidx, arr(41, col_start[c] + k, 4));
                rec.load(pc_value, arr(42, col_start[c] + k, 8));
                // Dense vector gather at the sparse row index.
                rec.load(pc_dense, arr(43, col[k], 8));
                rec.compute(p.compute_gap);
            }
            // Ratio test (Fig. 16): leave depends on the column data.
            const std::size_t leave = col[col.size() / 2] % dim;
            rec.load(pc_upd, arr(44, leave, 8));
            const bool taken = (leave % 5) < 3;  // data-dependent branch
            if (taken) {
                rec.load(pc_ub, arr(45, leave, 8));
                rec.load(pc_vec_then, arr(47, leave, 8));
            } else {
                rec.load(pc_lb, arr(46, leave, 8));
                rec.load(pc_vec_else, arr(47, leave, 8));
            }
            rec.compute(p.compute_gap);
        }
    }
    return t;
}

Trace
make_astar_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("astar");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // Grid pathfinding: expand nodes from an open-list heap, touching
    // the 8-neighbourhood of the expanded cell (spatially local) and
    // heap entries (semi-regular).
    const auto side = static_cast<std::size_t>(
        512 * std::sqrt(p.footprint_scale));
    const Addr pc_pop = layout::pc_of(16, 1);
    const Addr pc_cell = layout::pc_of(16, 2);
    const Addr pc_neigh = layout::pc_of(16, 3);
    const Addr pc_push = layout::pc_of(16, 4);
    const Addr pc_gscore = layout::pc_of(16, 5);

    auto cell_addr = [&](std::size_t x, std::size_t y) {
        return arr(50, y * side + x, 16);
    };

    // A deque: pops take one of the first four entries, so erasing
    // one shifts at most three instead of the whole list.
    std::deque<std::pair<std::uint32_t, std::uint32_t>> open;
    std::size_t heap_len = 0;
    while (rec.recorded() < p.max_accesses) {
        if (open.empty()) {
            open.emplace_back(rng.next_below(side), rng.next_below(side));
            heap_len = 1;
        }
        // Pop an entry (favour the front to mimic the priority queue).
        const std::size_t pick = rng.next_below(std::min<std::size_t>(
            4, open.size()));
        rec.load(pc_pop, arr(51, pick, 16));
        auto [x, y] = open[pick];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        rec.load(pc_cell, cell_addr(x, y));
        // Expand the 8-neighbourhood.
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                const std::size_t nx = (x + side + dx) % side;
                const std::size_t ny = (y + side + dy) % side;
                rec.load(pc_neigh, cell_addr(nx, ny));
                rec.load(pc_gscore, arr(52, ny * side + nx, 8));
                if (rng.next_below(4) == 0 && open.size() < 4096) {
                    rec.store(pc_push, arr(51, heap_len % 4096, 16));
                    ++heap_len;
                    open.emplace_back(static_cast<std::uint32_t>(nx),
                                      static_cast<std::uint32_t>(ny));
                }
                rec.compute(p.compute_gap);
            }
        }
    }
    return t;
}

Trace
make_sphinx_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("sphinx");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // Speech decoding: per audio frame, score the active HMM states.
    // Each state reads a row of the Gaussian-mixture table (spatially
    // local burst at an irregular base) plus the sequential feature
    // vector; the active list evolves slowly frame to frame.
    const auto num_states = static_cast<std::size_t>(
        20000 * p.footprint_scale);
    const std::size_t row_words = 16;  // 2 lines per senone row
    const std::size_t feat_words = 13;
    const Addr pc_active = layout::pc_of(18, 1);
    const Addr pc_row = layout::pc_of(18, 2);
    const Addr pc_feat = layout::pc_of(18, 3);
    const Addr pc_score = layout::pc_of(18, 4);

    std::vector<std::uint32_t> active;
    for (std::size_t i = 0; i < 600; ++i)
        active.push_back(static_cast<std::uint32_t>(
            rng.next_below(num_states)));
    std::sort(active.begin(), active.end());

    while (rec.recorded() < p.max_accesses) {
        // One frame.
        for (std::size_t a = 0;
             a < active.size() && rec.recorded() < p.max_accesses; ++a) {
            rec.load(pc_active, arr(60, a, 4));
            const std::uint32_t s = active[a];
            for (std::size_t w = 0; w < row_words; w += 8)
                rec.load(pc_row, arr(61, s * row_words + w, 8));
            for (std::size_t w = 0; w < feat_words; w += 8)
                rec.load(pc_feat, arr(62, w, 8));
            rec.store(pc_score, arr(63, s, 8));
            rec.compute(p.compute_gap);
        }
        // Evolve the active set slightly (beam pruning + new states).
        for (std::size_t k = 0; k < active.size() / 16; ++k) {
            active[rng.next_below(active.size())] =
                static_cast<std::uint32_t>(rng.next_below(num_states));
        }
        std::sort(active.begin(), active.end());
    }
    return t;
}

Trace
make_xalancbmk_trace(const SpecParams &p)
{
    Rng rng(p.seed);
    Trace t("xalancbmk");
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    // XSLT transform: depth-first DOM traversal over first-child /
    // next-sibling pointers, with string-table hash probes per element.
    const auto num_nodes = static_cast<std::size_t>(
        60000 * p.footprint_scale);
    const auto hash_buckets = static_cast<std::size_t>(
        16384 * p.footprint_scale);
    const Addr pc_node = layout::pc_of(20, 1);
    const Addr pc_child = layout::pc_of(20, 2);
    const Addr pc_sibling = layout::pc_of(20, 3);
    const Addr pc_hash = layout::pc_of(20, 4);
    const Addr pc_attr = layout::pc_of(20, 5);

    // Build a random tree; children allocated in traversal order so the
    // chase is a mix of near-sequential and far jumps.
    struct Node { std::uint32_t first_child = 0; std::uint32_t next_sib = 0; };
    std::vector<Node> tree(num_nodes);
    for (std::size_t i = 1; i < num_nodes; ++i) {
        // Attach node i under a recent node (locality) or a random one.
        const std::size_t parent = rng.next_below(4) != 0
            ? i - 1 - rng.next_below(std::min<std::size_t>(i, 32))
            : rng.next_below(i);
        if (tree[parent].first_child == 0) {
            tree[parent].first_child = static_cast<std::uint32_t>(i);
        } else {
            std::uint32_t s = tree[parent].first_child;
            while (tree[s].next_sib != 0)
                s = tree[s].next_sib;
            tree[s].next_sib = static_cast<std::uint32_t>(i);
        }
    }
    ZipfSampler name_dist(hash_buckets, 0.9);

    while (rec.recorded() < p.max_accesses) {
        // Iterative DFS from the root.
        std::vector<std::uint32_t> stack = {0};
        while (!stack.empty() && rec.recorded() < p.max_accesses) {
            const std::uint32_t n = stack.back();
            stack.pop_back();
            rec.load(pc_node, arr(70, n, 64));
            // String-table probe for the element name.
            const std::size_t bucket = name_dist.sample(rng);
            rec.load(pc_hash, arr(71, bucket, 16));
            if (rng.next_below(3) == 0)
                rec.load(pc_attr, arr(72, n, 32));
            const std::uint32_t c = tree[n].first_child;
            const std::uint32_t s = tree[n].next_sib;
            if (s != 0) {
                rec.load(pc_sibling, arr(70, s, 64));
                stack.push_back(s);
            }
            if (c != 0) {
                rec.load(pc_child, arr(70, c, 64));
                stack.push_back(c);
            }
            rec.compute(p.compute_gap);
        }
    }
    return t;
}

}  // namespace voyager::trace::gen
