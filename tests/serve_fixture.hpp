/**
 * @file
 * Shared fixtures for the serving-layer tests (DESIGN.md §5.16): a
 * deterministic integer StubPredictor whose candidates encode the
 * batch row that produced them (so dropped/duplicated/cross-delivered
 * requests are detectable from response lines alone), and the
 * serve_tiny golden scenario used by both golden_determinism_test and
 * golden_stats_test.
 *
 * serve_tiny deliberately serves the stub, not a trained model: every
 * `serve.*` stat is then integer-derived (virtual ticks, batch
 * geometry, stub decodes), so the checked-in golden document holds
 * byte-for-byte across Release and Debug/sanitizer builds — the same
 * FP-robustness principle as fig5_tiny.json. Model-path equivalence
 * is pinned separately (and per build) by batch_equivalence_test.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vocab.hpp"
#include "serve/client.hpp"
#include "serve/heuristic.hpp"
#include "serve/predictor.hpp"
#include "serve/server.hpp"
#include "util/fault_injection.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace voyager::serve_test {

/**
 * Integer-deterministic TokenPredictor: candidate j of row b is
 * (page = row b's newest page token, offset = j), and decode folds
 * the tokens with the request's prev_line, so every response line is
 * a pure function of (issuing request, candidate rank). A cross-wired
 * batcher row or mis-routed response therefore changes the lines a
 * tenant observes — no model required.
 */
class StubPredictor final : public serve::TokenPredictor
{
  public:
    /** @param salt added to every candidate offset token, so two stub
     *  rungs of a ladder produce distinguishable lines (the chaos
     *  tests read the answering rung off the responses). */
    explicit StubPredictor(std::size_t seq_len, std::int32_t salt = 0)
        : seq_len_(seq_len), salt_(salt)
    {
    }

    std::size_t seq_len() const override { return seq_len_; }

    std::vector<std::vector<core::TokenPrediction>>
    predict_tokens(const core::VoyagerBatch &batch,
                   std::size_t k) override
    {
        ++calls_;
        const std::size_t T = batch.seq;
        std::vector<std::vector<core::TokenPrediction>> out(
            batch.batch);
        for (std::size_t b = 0; b < batch.batch; ++b) {
            const std::int32_t page = batch.page[b * T + T - 1];
            out[b].reserve(k);
            for (std::size_t j = 0; j < k; ++j) {
                core::TokenPrediction p;
                p.page = page;
                p.offset = static_cast<std::int32_t>(j) + salt_;
                p.prob = 1.0f / static_cast<float>(j + 1);
                out[b].push_back(p);
            }
        }
        return out;
    }

    /** Batched forwards executed (the all-expired batch tests pin
     *  that the predictor is never consulted for dead rows). */
    std::uint64_t calls() const { return calls_; }

    std::optional<Addr>
    decode(std::int32_t page_token, std::int32_t offset_token,
           Addr prev_line) const override
    {
        return expected_line(page_token, offset_token, prev_line);
    }

    std::string engine() const override { return "stub"; }

    /** The line decode() answers — tests recompute it per request. */
    static Addr
    expected_line(std::int32_t page_token, std::int32_t offset_token,
                  Addr prev_line)
    {
        return (static_cast<Addr>(
                    static_cast<std::uint32_t>(page_token))
                << 24) ^
               (static_cast<Addr>(
                    static_cast<std::uint32_t>(offset_token))
                << 16) ^
               prev_line;
    }

  private:
    std::size_t seq_len_;
    std::int32_t salt_ = 0;
    std::uint64_t calls_ = 0;
};

/** The golden tests' access builder (mirrors golden_determinism). */
inline sim::LlcAccess
serve_acc(Addr pc, Addr line, std::uint64_t index)
{
    sim::LlcAccess a;
    a.index = index;
    a.pc = pc;
    a.line = line;
    a.is_load = true;
    return a;
}

/** A strongly repeating stream: a fixed tour of `period` lines. */
inline std::vector<sim::LlcAccess>
serve_cyclic_stream(std::size_t n, std::size_t period,
                    std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> tour(period);
    for (std::size_t i = 0; i < period; ++i)
        tour[i] = 0x10000 + rng.next_below(200) * 7 + i * 3;
    std::vector<sim::LlcAccess> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(serve_acc(0x400000 + (i % 4) * 4,
                              tour[i % period], i));
    return s;
}

/**
 * The serve_tiny golden scenario: three tenants walk disjoint slices
 * of a cyclic stream through real Vocabulary encoding, interleaved by
 * a seeded arrival order into a max_batch=4 server over the stub.
 * Ragged windows occur naturally (every tenant's first seq_len-1
 * requests are short), so padded_rows and partial flush batches are
 * pinned too. Returns the deterministic (volatile-free) JSON doc.
 */
inline std::string
run_serve_tiny()
{
    StatRegistry reg;
    reg.set_meta("bench", "serve_tiny");

    const auto stream = serve_cyclic_stream(480, 30, 7);
    const auto vocab = core::Vocabulary::build(stream);
    constexpr std::size_t kSeqLen = 4;
    StubPredictor predictor(kSeqLen);
    serve::ServeConfig sc;
    sc.max_batch = 4;
    serve::PrefetchServer server(predictor, sc);

    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0; t < 3; ++t) {
        const std::size_t begin = t * 160;
        const std::vector<sim::LlcAccess> slice(
            stream.begin() + begin, stream.begin() + begin + 150);
        clients.emplace_back(t, slice, vocab, kSeqLen,
                             /*degree=*/2);
    }
    serve::run_interleaved(server, clients, /*seed=*/5);
    server.export_stats(reg);

    StatEmitOptions opts;
    opts.include_volatile = false;
    return reg.json(opts);
}

/** The canned chaos fault plan the serve_chaos_tiny golden pins:
 *  periodic predictor stalls, a flooding client pick, poisoned batch
 *  logits and misrouted responses, all seeded. */
inline FaultPlan
serve_chaos_plan()
{
    return FaultPlan::parse(
        "serve_stall@batch=2:every=6:x=18;"
        "serve_flood@submit=9:every=23:x=10;"
        "serve_poison@batch=4:every=13;"
        "serve_misroute@response=7:every=29;"
        "seed=11");
}

/**
 * The serve_chaos_tiny golden scenario (DESIGN.md §5.19): the same
 * three-tenant cyclic workload as serve_tiny, but through a bounded
 * deadline-scheduled server with per-tenant quotas and a three-rung
 * ladder — stub "fp32", salted stub "int8", then a real per-tenant
 * StreamGroup heuristic — under the canned serve fault plan. Every
 * stat is integer-derived (virtual ticks, stub decodes, table walks),
 * so the checked-in golden holds byte-for-byte across Release and
 * sanitizer builds. Returns the volatile-free JSON doc.
 */
inline std::string
run_serve_chaos_tiny()
{
    StatRegistry reg;
    reg.set_meta("bench", "serve_chaos_tiny");

    const auto stream = serve_cyclic_stream(480, 30, 7);
    const auto vocab = core::Vocabulary::build(stream);
    constexpr std::size_t kSeqLen = 4;
    StubPredictor fp32(kSeqLen, /*salt=*/0);
    StubPredictor int8(kSeqLen, /*salt=*/8);
    serve::HeuristicEngine heuristic(/*degree=*/2);

    std::vector<serve::EngineRung> rungs;
    rungs.push_back({"fp32", &fp32, nullptr, {}});
    rungs.push_back({"int8", &int8, nullptr, {}});
    rungs.push_back({"heuristic", nullptr, &heuristic, {}});

    serve::ServeConfig sc;
    sc.max_batch = 4;
    sc.queue_cap = 10;
    sc.deadline_ticks = 12;
    sc.tenant_quota = 6;
    sc.shed_policy = serve::ShedPolicy::DropExpired;
    sc.degrade.window = 16;

    fault_injector().install(serve_chaos_plan());
    serve::PrefetchServer server(std::move(rungs), sc);
    std::vector<serve::SimulatedClient> clients;
    for (std::uint32_t t = 0; t < 3; ++t) {
        const std::size_t begin = t * 160;
        const std::vector<sim::LlcAccess> slice(
            stream.begin() + begin, stream.begin() + begin + 150);
        clients.emplace_back(t, slice, vocab, kSeqLen,
                             /*degree=*/2);
    }
    serve::run_interleaved(server, clients, /*seed=*/5);
    server.export_stats(reg);
    export_fault_stats(reg);
    fault_injector().clear();

    StatEmitOptions opts;
    opts.include_volatile = false;
    return reg.json(opts);
}

}  // namespace voyager::serve_test
