#include "trace/gen/oltp.hpp"

#include <vector>

#include "trace/gen/recorder.hpp"
#include "util/random.hpp"

namespace voyager::trace::gen {

namespace {

Addr
arr(std::uint32_t structure, std::uint64_t index, std::uint32_t elem_size)
{
    return layout::data_base(structure) + index * elem_size;
}

/**
 * One in-flight request walking a server's data structures. Requests
 * advance one step at a time so the recorded stream interleaves many
 * contexts, the way a production server's access stream does.
 */
struct Request
{
    int handler = 0;       ///< which code-path variant (PC family)
    int stage = 0;         ///< progress within the handler
    std::uint64_t key = 0;
    std::uint64_t tree_node = 0;   ///< current index-node id
    int depth = 0;
    std::uint64_t posting_pos = 0;
    std::uint64_t posting_len = 0;
    std::uint64_t arena_base = 0;  ///< fresh allocation cursor
};

struct ServerParams
{
    std::size_t hash_buckets;
    std::size_t tree_nodes;
    std::size_t posting_words;
    int tree_depth;
    int stages;             ///< scoring stages per request
    std::uint32_t base_block;  ///< first PC block for this server
};

/**
 * Shared engine for both servers; they differ in structure sizes,
 * handler variety and join depth.
 */
Trace
make_oltp_trace(const char *name, const OltpParams &p,
                const ServerParams &sp)
{
    Rng rng(p.seed);
    Trace t(name);
    t.reserve(checked_budget(p.max_accesses) + kBudgetSlack);
    TraceRecorder rec(t);

    ZipfSampler keys(sp.hash_buckets, p.key_skew);

    // PC layout: each handler variant gets its own basic block of
    // lines, so the trace exhibits thousands of PCs like the paper's
    // Table 2 reports for search/ads.
    auto pc = [&](int handler, int line) {
        return layout::pc_of(
            sp.base_block + static_cast<std::uint32_t>(handler),
            static_cast<std::uint32_t>(line));
    };

    // Index tree: child pointers precomputed per node (fan-out 8).
    const std::size_t fanout = 8;

    std::vector<Request> reqs(static_cast<std::size_t>(p.concurrency));
    std::uint64_t arena_cursor = 0;
    auto reset_request = [&](Request &r) {
        r.handler = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(p.handler_variants)));
        r.stage = 0;
        r.key = keys.sample(rng);
        r.tree_node = 0;
        r.depth = 0;
        r.posting_pos = 0;
        r.posting_len = 8 + rng.next_below(56);
        r.arena_base = arena_cursor;
        arena_cursor += 4 + rng.next_below(4);  // lines of fresh arena
    };
    for (auto &r : reqs)
        reset_request(r);

    std::size_t turn = 0;
    while (rec.recorded() < p.max_accesses) {
        Request &r = reqs[turn];
        turn = (turn + 1) % reqs.size();
        const int h = r.handler;
        switch (r.stage) {
          case 0: {
            // Arena allocation for the request context (fresh lines —
            // compulsory misses, like RPC deserialization buffers).
            rec.store(pc(h, 0), arr(80, r.arena_base, 64));
            rec.load(pc(h, 1), arr(80, r.arena_base + 1, 64));
            r.stage = 1;
            break;
          }
          case 1: {
            // Hash-table probe for the (Zipf-popular) key.
            const std::uint64_t bucket = r.key;
            rec.load(pc(h, 2), arr(81, bucket, 32));
            // Chain of 0-2 extra probes.
            if (rng.next_below(3) == 0)
                rec.load(pc(h, 3), arr(81, (bucket * 31 + 7) %
                                               sp.hash_buckets, 32));
            r.stage = 2;
            break;
          }
          case 2: {
            // Index-tree descent, one level per turn (pointer chase).
            rec.load(pc(h, 4), arr(82, r.tree_node, 64));
            const std::uint64_t child =
                (r.tree_node * fanout + 1 + (r.key >> r.depth) % fanout);
            r.tree_node = child % sp.tree_nodes;
            if (++r.depth >= sp.tree_depth) {
                // Posting list base derived from the reached leaf.
                r.posting_pos =
                    (r.tree_node * 131) % sp.posting_words;
                r.stage = 3;
            }
            break;
          }
          case 3: {
            // Posting-list / feature scan: short sequential burst.
            for (int k = 0; k < 4; ++k) {
                rec.load(pc(h, 5), arr(83, r.posting_pos, 8));
                ++r.posting_pos;
            }
            if (--r.posting_len == 0 ||
                r.posting_pos >= sp.posting_words)
                r.stage = 4;
            break;
          }
          case 4: {
            // Scoring stages: per-stage model tables indexed by key.
            const int stage_line = 6 + (r.stage - 4) + r.handler % 3;
            rec.load(pc(h, stage_line),
                     arr(84u + static_cast<std::uint32_t>(h % 4),
                         (r.key * 2654435761ull) % sp.hash_buckets, 16));
            rec.store(pc(h, 12), arr(80, r.arena_base + 2, 64));
            if (++r.stage >= 4 + sp.stages)
                reset_request(r);
            break;
          }
          default:
            reset_request(r);
            break;
        }
        rec.compute(1);
    }
    return t;
}

}  // namespace

Trace
make_search_trace(const OltpParams &p)
{
    ServerParams sp;
    sp.hash_buckets =
        static_cast<std::size_t>(60000 * p.footprint_scale);
    sp.tree_nodes = static_cast<std::size_t>(30000 * p.footprint_scale);
    sp.posting_words =
        static_cast<std::size_t>(400000 * p.footprint_scale);
    sp.tree_depth = 5;
    sp.stages = 3;
    sp.base_block = 100;
    return make_oltp_trace("search", p, sp);
}

Trace
make_ads_trace(const OltpParams &p)
{
    OltpParams q = p;
    q.handler_variants = p.handler_variants * 3;  // ads has ~3x the PCs
    ServerParams sp;
    sp.hash_buckets =
        static_cast<std::size_t>(90000 * p.footprint_scale);
    sp.tree_nodes = static_cast<std::size_t>(40000 * p.footprint_scale);
    sp.posting_words =
        static_cast<std::size_t>(500000 * p.footprint_scale);
    sp.tree_depth = 6;
    sp.stages = 6;   // deeper feature joins
    sp.base_block = 600;
    return make_oltp_trace("ads", q, sp);
}

}  // namespace voyager::trace::gen
