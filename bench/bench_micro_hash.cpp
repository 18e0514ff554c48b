/**
 * @file
 * Micro-benchmark of util/flat_hash vs std::unordered_map on the key
 * distributions the hot paths actually see (DESIGN.md §5.15):
 *
 *  - "vocab": line addresses — clustered pages with dense 6-bit
 *    offsets, the shape of the Vocabulary's line-keyed structures.
 *    Sized to the infrequent-line filter (unique lines per trace,
 *    paper Fig. 2: 10^5-10^7), not the small pc/page id maps, which
 *    are L2-resident where any container is cheap.
 *  - "isb":   ~1M structural addresses — dense chunk-aligned ranges,
 *    the shape of the ISB phys<->struct mappings at trace scale.
 *
 * For each distribution it sweeps insert, lookup-hit and lookup-miss,
 * reports ns/op for both containers plus the speedup, and emits the
 * closed `micro_hash.*` stat namespace (tools/check_stats_schema.py).
 *
 * The hit/miss probe loops pipeline the flat table with
 * `prefetch(key)` a few probes ahead, exactly as the hot call sites
 * can (an encoder walking an access trace knows its future keys).
 * Chained tables cannot be pipelined this way — a node's line is
 * unknown until the bucket head is loaded — so std runs the plain
 * loop; the `hit_serial` row reports the unpipelined flat number for
 * reference.
 *
 * Flags: --n_vocab=N --n_isb=N --reps=N --stats_json=PATH
 *        --stats_csv=PATH
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/flat_hash.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace voyager;

/** Optimization sink: every sweep folds its probe results in here. */
volatile std::uint64_t g_sink = 0;

/** Wall time of one call to `fn`, in seconds. */
template <typename F>
double
time_once(F &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}


/** Vocab-shaped keys: clustered pages, dense low-entropy offsets. */
std::vector<std::uint64_t>
vocab_keys(std::size_t n, std::uint64_t page_base)
{
    Rng rng(7);
    const std::uint64_t pages = std::max<std::uint64_t>(1, n / 48);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    FlatHashSet<std::uint64_t> seen;
    seen.reserve(n);
    while (keys.size() < n) {
        const std::uint64_t k =
            ((page_base + rng.next_below(pages)) << 6) |
            rng.next_below(64);
        if (seen.insert(k))
            keys.push_back(k);
    }
    return keys;
}

/** ISB-shaped keys: dense chunk-aligned structural ranges. */
std::vector<std::uint64_t>
isb_keys(std::size_t n, std::uint64_t base)
{
    // 192 live slots out of every 256-aligned chunk, like streams
    // that grew past their reservation boundary.
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(base + (i / 192) * 256 + i % 192);
    return keys;
}

/** One insert/hit/miss sweep of both containers over `keys`. */
void
run_sweep(const std::string &dist,
          const std::vector<std::uint64_t> &keys,
          const std::vector<std::uint64_t> &absent, int reps,
          StatRegistry &reg, Table &table)
{
    const std::size_t n = keys.size();

    // Shuffled probe order so lookups walk the tables
    // non-sequentially: in construction order the isb keys are
    // consecutive integers, and std::unordered_map's identity hash
    // would turn the probe loop into a hardware-prefetched linear
    // scan of its bucket array — a pattern no real access stream has.
    Rng rng(11);
    const auto shuffled = [&rng](std::vector<std::uint64_t> v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.next_below(i)]);
        return v;
    };
    const std::vector<std::uint64_t> probes = shuffled(keys);
    const std::vector<std::uint64_t> misses = shuffled(absent);

    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    // Lookups ahead of the current probe by this many steps get a
    // prefetch(key); far enough to cover a DRAM round trip, near
    // enough to stay resident until consumed. prefetch() returns the
    // key's hash, parked in a small power-of-two ring until the
    // lookup consumes it via the *_hashed entry points — so each
    // probe hashes exactly once, off the critical path.
    constexpr std::size_t kLookahead = 12;
    constexpr std::size_t kRingMask = 15;  // ring of 16 > lookahead
    std::uint64_t hash_ring[kRingMask + 1] = {};

    // Per-rep samples for every measurement. The flat/std loops of
    // one rep run back to back, so an epoch of host interference —
    // this box is a shared 1-core VM — inflates both sides of that
    // rep's ratio together instead of skewing it; the reported
    // speedup is the median of the per-rep ratios and the ns columns
    // are median rep times, both robust to outlier epochs where a
    // best-of would crown whichever side drew the quietest window.
    std::vector<double> flat_ins;
    std::vector<double> std_ins;
    std::vector<double> flat_hit_serial;
    std::vector<double> flat_hit;
    std::vector<double> std_hit;
    std::vector<double> flat_miss;
    std::vector<double> std_miss;
    for (int rep = 0; rep < reps; ++rep) {
        flat_ins.push_back(time_once([&] {
            FlatHashMap<std::uint64_t, std::uint64_t> m;
            for (std::size_t i = 0; i < n; ++i)
                m.emplace(keys[i], i);
            g_sink = g_sink + m.size();
            flat = std::move(m);
        }));
        std_ins.push_back(time_once([&] {
            std::unordered_map<std::uint64_t, std::uint64_t> m;
            for (std::size_t i = 0; i < n; ++i)
                m.emplace(keys[i], i);
            g_sink = g_sink + m.size();
            ref = std::move(m);
        }));
        flat_hit_serial.push_back(time_once([&] {
            std::uint64_t acc = 0;
            for (const auto k : probes)
                acc += flat.find(k)->second;
            g_sink = g_sink + acc;
        }));
        flat_hit.push_back(time_once([&] {
            std::uint64_t acc = 0;
            const std::size_t sz = probes.size();
            const std::size_t main_end =
                sz > kLookahead ? sz - kLookahead : 0;
            for (std::size_t i = 0; i < std::min(kLookahead, sz);
                 ++i)
                hash_ring[i & kRingMask] = flat.prefetch(probes[i]);
            std::size_t i = 0;
            for (; i < main_end; ++i) {
                hash_ring[(i + kLookahead) & kRingMask] =
                    flat.prefetch(probes[i + kLookahead]);
                acc += flat.find_hashed(probes[i],
                                        hash_ring[i & kRingMask])
                           ->second;
            }
            for (; i < sz; ++i)
                acc += flat.find_hashed(probes[i],
                                        hash_ring[i & kRingMask])
                           ->second;
            g_sink = g_sink + acc;
        }));
        std_hit.push_back(time_once([&] {
            std::uint64_t acc = 0;
            for (const auto k : probes)
                acc += ref.find(k)->second;
            g_sink = g_sink + acc;
        }));
        flat_miss.push_back(time_once([&] {
            std::uint64_t acc = 0;
            const std::size_t sz = misses.size();
            const std::size_t main_end =
                sz > kLookahead ? sz - kLookahead : 0;
            for (std::size_t i = 0; i < std::min(kLookahead, sz);
                 ++i)
                hash_ring[i & kRingMask] =
                    flat.prefetch_tag(misses[i]);
            std::size_t i = 0;
            for (; i < main_end; ++i) {
                hash_ring[(i + kLookahead) & kRingMask] =
                    flat.prefetch_tag(misses[i + kLookahead]);
                acc += flat.contains_hashed(misses[i],
                                            hash_ring[i & kRingMask]);
            }
            for (; i < sz; ++i)
                acc += flat.contains_hashed(misses[i],
                                            hash_ring[i & kRingMask]);
            g_sink = g_sink + acc;
        }));
        std_miss.push_back(time_once([&] {
            std::uint64_t acc = 0;
            for (const auto k : misses)
                acc += ref.count(k);
            g_sink = g_sink + acc;
        }));
    }

    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        const std::size_t h = v.size() / 2;
        return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
    };
    const auto emit = [&](const std::string &op,
                          const std::vector<double> &flat_s,
                          const std::vector<double> &std_s,
                          std::size_t ops) {
        const double flat_ns =
            1e9 * median(flat_s) / static_cast<double>(ops);
        const double std_ns =
            1e9 * median(std_s) / static_cast<double>(ops);
        std::vector<double> ratios;
        for (std::size_t r = 0; r < flat_s.size(); ++r)
            ratios.push_back(flat_s[r] > 0.0 ? std_s[r] / flat_s[r]
                                             : 0.0);
        const double speedup = median(ratios);
        const std::string p = "micro_hash." + dist + "." + op;
        reg.gauge(p + ".flat_ns", /*volatile_stat=*/true) = flat_ns;
        reg.gauge(p + ".std_ns", /*volatile_stat=*/true) = std_ns;
        reg.gauge(p + ".speedup", /*volatile_stat=*/true) = speedup;
        table.add_row({dist, op, strfmt("%.1f", flat_ns),
                       strfmt("%.1f", std_ns),
                       strfmt("%.2fx", speedup)});
    };
    emit("insert", flat_ins, std_ins, n);
    emit("hit", flat_hit, std_hit, probes.size());
    emit("hit_serial", flat_hit_serial, std_hit, probes.size());
    emit("miss", flat_miss, std_miss, misses.size());

    reg.counter("micro_hash." + dist + ".keys") = n;
    reg.counter("micro_hash." + dist + ".flat_storage_bytes") =
        flat.storage_bytes();
}

std::uint64_t
flag_uint(int argc, char **argv, const std::string &flag,
          std::uint64_t def)
{
    const std::string prefix = "--" + flag + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return std::stoull(arg.substr(prefix.size()));
    }
    return def;
}

std::string
flag_str(int argc, char **argv, const std::string &flag)
{
    const std::string prefix = "--" + flag + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return "";
}

}  // namespace

int
main(int argc, char **argv)
{
    const auto n_vocab = static_cast<std::size_t>(
        flag_uint(argc, argv, "n_vocab", 1 << 19));
    const auto n_isb = static_cast<std::size_t>(
        flag_uint(argc, argv, "n_isb", 1 << 20));
    const int reps =
        static_cast<int>(flag_uint(argc, argv, "reps", 7));
    const std::string stats_json = flag_str(argc, argv, "stats_json");
    const std::string stats_csv = flag_str(argc, argv, "stats_csv");

    StatRegistry reg;
    reg.set_meta("bench", "micro_hash");
    Table table({"distribution", "op", "flat ns/op", "std ns/op",
                 "speedup"});

    std::cout << "=== micro_hash: FlatHashMap vs std::unordered_map "
                 "===\n"
              << "vocab keys=" << n_vocab << " isb keys=" << n_isb
              << " reps=" << reps
              << " (median times, median per-rep speedup)\n\n";

    // Disjoint key ranges make the miss probes absent by construction.
    run_sweep("vocab", vocab_keys(n_vocab, /*page_base=*/1 << 20),
              vocab_keys(n_vocab, /*page_base=*/1 << 21), reps, reg,
              table);
    run_sweep("isb", isb_keys(n_isb, /*base=*/0),
              isb_keys(n_isb, /*base=*/n_isb * 2 + (1 << 20)), reps,
              reg, table);

    table.print(std::cout);
    std::cout << "\n(sink " << g_sink << ")\n";

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        reg.write_json(os);
    }
    if (!stats_csv.empty()) {
        std::ofstream os(stats_csv);
        reg.write_csv(os);
    }
    return 0;
}
