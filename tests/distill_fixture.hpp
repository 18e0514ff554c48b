/**
 * @file
 * Shared fixtures for the tabularized-serving tests (DESIGN.md
 * §5.18): a deterministic synthetic teacher (the StubPredictor
 * candidate rule applied per stream index) and the distill_tiny
 * golden scenario used by both golden_determinism_test and
 * golden_stats_test.
 *
 * distill_tiny deliberately distills the stub, not a trained model:
 * every `distill.*` stat is then integer-derived (table geometry,
 * admission/eviction counts, probe outcomes, exact-ratio hit rates),
 * so the checked-in golden document holds byte-for-byte across
 * Release and Debug/sanitizer builds — the same FP-robustness
 * principle as serve_tiny.json. Model-path equivalence is pinned
 * separately (and per build) by distill_differential_test.
 */
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/tabular.hpp"
#include "core/vocab.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/tabular_predictor.hpp"
#include "serve_fixture.hpp"
#include "util/stat_registry.hpp"

namespace voyager::distill_test {

/** The StubPredictor candidate rule as a teacher: candidate j of
 *  index i is (page = index i's page token, offset = j). */
inline std::vector<std::vector<core::TokenPrediction>>
stub_teacher(const core::EncodedStream &enc,
             const std::vector<std::size_t> &indices, std::size_t k)
{
    std::vector<std::vector<core::TokenPrediction>> teacher(
        indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
        teacher[j].reserve(k);
        for (std::size_t c = 0; c < k; ++c) {
            core::TokenPrediction p;
            p.page = enc.page[indices[j]];
            p.offset = static_cast<std::int32_t>(c);
            p.prob = 1.0f / static_cast<float>(c + 1);
            teacher[j].push_back(p);
        }
    }
    return teacher;
}

/**
 * The distill_tiny golden scenario: distill the stub teacher over a
 * cyclic stream into budgeted tables (a starved budget to pin the
 * CLOCK admission/eviction counters, a comfortable one to pin full
 * coverage), probe the frontier, then serve three tenants through a
 * TabularPredictor over the comfortable table with the stub as the
 * neural-path stand-in and a tight drift window. Returns the
 * deterministic (volatile-free) JSON doc.
 */
inline std::string
run_distill_tiny()
{
    StatRegistry reg;
    reg.set_meta("bench", "distill_tiny");

    const auto stream = serve_test::serve_cyclic_stream(480, 30, 7);
    const auto vocab = core::Vocabulary::build(stream);
    const auto enc = core::encode_stream(stream, vocab);
    constexpr std::size_t kSeqLen = 4;
    constexpr std::uint32_t kDegree = 2;
    constexpr std::size_t kTeachK = kDegree + core::kDecodeOverFetch;

    std::vector<std::size_t> indices(enc.size() - (kSeqLen - 1));
    std::iota(indices.begin(), indices.end(), kSeqLen - 1);
    const auto teacher = stub_teacher(enc, indices, kTeachK);

    // Mini frontier: the starved budget forces evictions, the
    // comfortable budget admits every context.
    for (const std::uint64_t budget : {512ull, 8192ull}) {
        core::TabularConfig cfg;
        cfg.l1_history = kSeqLen;
        cfg.l2_history = 1;
        cfg.degree = kDegree;
        cfg.budget_bytes = budget;
        const auto table = core::distill_to_table(enc, indices,
                                                  teacher, kSeqLen,
                                                  cfg);
        std::uint64_t l1_hits = 0;
        std::uint64_t l2_hits = 0;
        std::vector<core::TokenPrediction> out;
        for (const std::size_t i : indices) {
            const auto lvl = table.probe(
                enc.pc[i], enc.page.data() + i + 1 - kSeqLen,
                enc.offset.data() + i + 1 - kSeqLen, kSeqLen, out);
            if (lvl == core::TabularTable::ProbeLevel::L1)
                ++l1_hits;
            else if (lvl == core::TabularTable::ProbeLevel::L2)
                ++l2_hits;
        }
        const std::uint64_t hits = l1_hits + l2_hits;
        const std::string p =
            "distill.frontier.b" + std::to_string(budget) + "_h1";
        reg.counter(p + ".budget_bytes") = budget;
        reg.counter(p + ".bytes") = table.storage_bytes();
        reg.counter(p + ".l1_entries") = table.l1_entries();
        reg.counter(p + ".l2_entries") = table.l2_entries();
        reg.counter(p + ".l1_hits") = l1_hits;
        reg.counter(p + ".l2_hits") = l2_hits;
        reg.counter(p + ".misses") = indices.size() - hits;
        reg.gauge(p + ".hit_rate") =
            static_cast<double>(hits) /
            static_cast<double>(indices.size());
    }

    // Serving leg: the serve_tiny tenant layout over the distilled
    // path. Ragged early windows (batcher OOV padding) probe contexts
    // the table never saw, so misses, fallback sub-batches, and the
    // tight drift window all fire deterministically.
    core::TabularConfig cfg;
    cfg.l1_history = kSeqLen;
    cfg.l2_history = 1;
    cfg.degree = kDegree;
    cfg.budget_bytes = 8192;
    const auto table =
        core::distill_to_table(enc, indices, teacher, kSeqLen, cfg);
    table.export_stats(reg);

    serve_test::StubPredictor stub(kSeqLen);
    serve::TabularServeConfig tsc;
    tsc.drift_window = 8;
    tsc.min_hit_rate = 0.9;
    serve::TabularPredictor tabular(table, stub, tsc);
    serve::ServeConfig sc;
    sc.max_batch = 4;
    serve::PrefetchServer server(tabular, sc);
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0; t < 3; ++t) {
        const std::size_t begin = t * 160;
        const std::vector<sim::LlcAccess> slice(
            stream.begin() + begin, stream.begin() + begin + 150);
        clients.emplace_back(t, slice, vocab, kSeqLen, kDegree);
    }
    serve::run_interleaved(server, clients, /*seed=*/5);
    server.export_stats(reg);
    tabular.export_stats(reg);

    StatEmitOptions opts;
    opts.include_volatile = false;
    return reg.json(opts);
}

}  // namespace voyager::distill_test
