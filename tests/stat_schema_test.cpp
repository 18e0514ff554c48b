/**
 * @file
 * Tests for the closed stat namespaces (util/stat_schema.hpp): every
 * library exporter emits exactly the names its namespace declares
 * (so a stale declaration fails, not only an undeclared name), and
 * StatRegistry refuses an undeclared name, a wrong kind or a bad
 * parametrised segment in every namespace when it creates the name.
 */
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/tabular.hpp"
#include "nn/ops.hpp"
#include "prefetch/stream_group.hpp"
#include "serve/heuristic.hpp"
#include "serve/server.hpp"
#include "serve/tabular_predictor.hpp"
#include "serve_fixture.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"
#include "util/stat_registry.hpp"
#include "util/stat_schema.hpp"

namespace voyager {
namespace {

using serve_test::StubPredictor;

TEST(StatSchema, LibraryExportersEmitEveryDeclaredName)
{
    // A ladder carrying every declared rung label.
    StubPredictor fp32(4), int8(4), distilled(4), stub(4);
    serve::HeuristicEngine heuristic;
    serve::PrefetchServer server(std::vector<serve::EngineRung>{
        {"fp32", &fp32, nullptr, {}},
        {"int8", &int8, nullptr, {}},
        {"distilled", &distilled, nullptr, {}},
        {"stub", &stub, nullptr, {}},
        {"heuristic", nullptr, &heuristic, {}}});
    const core::TabularTable table(core::TabularConfig{});
    serve::TabularPredictor tabular(table, fp32);
    const prefetch::StreamGroup stream_group;

    const struct
    {
        const char *prefix;
        std::function<void(StatRegistry &)> run;
    } exporters[] = {
        {"health.", [](StatRegistry &r) { export_health_stats(r); }},
        {"fault.", [](StatRegistry &r) { export_fault_stats(r); }},
        {"checkpoint.",
         [](StatRegistry &r) { core::export_checkpoint_stats(r); }},
        {"nn.qgemm.", [](StatRegistry &r) { nn::export_op_stats(r); }},
        {"serve.", [&](StatRegistry &r) { server.export_stats(r); }},
        {"distill.table.",
         [&](StatRegistry &r) { table.export_stats(r); }},
        {"distill.serve.",
         [&](StatRegistry &r) { tabular.export_stats(r); }},
        {"prefetch.stream_group.",
         [&](StatRegistry &r) {
             stream_group.export_stats(r, "prefetch.stream_group");
         }},
    };
    const auto declared = declared_closed_stats();
    for (const auto &e : exporters) {
        SCOPED_TRACE(e.prefix);
        StatRegistry reg;
        // Every closed name is checked as it is created, so an export
        // of an undeclared name or a wrong kind throws here.
        ASSERT_NO_THROW(e.run(reg));
        std::size_t n = 0;
        for (const auto &[name, kind] : declared) {
            if (!name.starts_with(e.prefix))
                continue;
            ++n;
            ASSERT_TRUE(reg.has(name))
                << name << " is declared but not emitted";
            EXPECT_EQ(reg.kind(name), kind) << name;
        }
        EXPECT_GT(n, 0u);
    }
}

void
create(StatRegistry &reg, const std::string &name, StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        reg.counter(name);
        break;
      case StatKind::Gauge:
        reg.gauge(name);
        break;
      case StatKind::Running:
        reg.running(name);
        break;
      case StatKind::Histogram:
        reg.histogram(name, 0.0, 1.0, 1);
        break;
    }
}

TEST(StatSchema, RejectsUndeclaredWrongKindAndBadParameter)
{
    constexpr StatKind C = StatKind::Counter;
    constexpr StatKind G = StatKind::Gauge;
    constexpr StatKind H = StatKind::Histogram;
    // Per namespace: a declared name and its kind, an undeclared leaf,
    // a wrong kind for the declared name, and (where the namespace
    // has parametrised segments) a value outside them.
    const struct
    {
        const char *declared;
        StatKind kind;
        const char *undeclared;
        StatKind wrong_kind;
        const char *bad_param;
    } rows[] = {
        {"checkpoint.writes", C, "checkpoint.reads", G, nullptr},
        {"nn.qgemm.seconds", G, "nn.qgemm.flops", C, nullptr},
        {"health.rollbacks", C, "health.rollback", G, nullptr},
        {"fault.serve.stalls", C, "fault.serve.stall", H, nullptr},
        {"serve.wait_ticks", H, "serve.wait_ticks_p99", C, nullptr},
        {"serve.degrade.heuristic.responses", C,
         "serve.degrade.heuristic.hits", G,
         "serve.degrade.gpu.responses"},
        {"transformer.xf_decode.stream_group.acc", G,
         "transformer.xf_decode.isb.ipc", C,
         "transformer.xf_other.isb.acc"},
        {"transformer.xf_mixed.voyager.us_per_access", G,
         "transformer.xf_mixed.voyager", C,
         "transformer.xf_mixed.domino.acc"},
        {"prefetch.stream_group.fast_tracks", C,
         "prefetch.stream_group.hits", G, nullptr},
        {"micro_hash.isb.hit_serial.speedup", G,
         "micro_hash.isb.hit_serial.p99_ns", C,
         "micro_hash.lru.hit.flat_ns"},
        {"micro_hash.vocab.keys", C, "micro_hash.vocab.slots", G,
         "micro_hash.vocab.erase.flat_ns"},
        {"distill.table.l2_evictions", C, "distill.table.l3_entries", G,
         nullptr},
        {"distill.serve.hit_rate", G, "distill.serve.hits", C, nullptr},
        {"distill.frontier.b65536_h1.hit_rate", G,
         "distill.frontier.b65536_h1.ipc", C,
         "distill.frontier.bx_h1.hit_rate"},
        {"distill.frontier.b4096_h12.misses", C,
         "distill.frontier.b4096_h12", G,
         "distill.frontier.b4096_h.misses"},
        {"distill.best.budget_bytes", C, "distill.worst.unified", G,
         nullptr},
        {"fig17.pr.compress.int8.bytes", C,
         "fig17.pr.compress.int8.scale", G, nullptr},
    };
    for (const auto &r : rows) {
        SCOPED_TRACE(r.declared);
        StatRegistry reg;
        EXPECT_THROW(create(reg, r.undeclared, r.kind), std::runtime_error);
        EXPECT_THROW(create(reg, r.declared, r.wrong_kind),
                     std::runtime_error);
        if (r.bad_param != nullptr) {
            EXPECT_THROW(create(reg, r.bad_param, r.kind),
                         std::runtime_error);
        }
        EXPECT_EQ(reg.size(), 0u);
        EXPECT_NO_THROW(create(reg, r.declared, r.kind));
    }
    // Names outside the closed prefixes and infix stay free.
    StatRegistry reg;
    for (const char *name : {"servers.requests", "nn.gemm.flops",
                             "fig5.bfs.isb", "compress.int8.x"})
        EXPECT_NO_THROW(reg.gauge(name)) << name;
}

TEST(StatSchema, MessageNamesTheStatAndItsNamespace)
{
    StatRegistry reg;
    const auto message = [&](const std::function<void()> &f) {
        try {
            f();
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    EXPECT_EQ(message([&] { reg.counter("serve.degrade.gpu.responses"); }),
              "StatRegistry: serve.degrade.gpu.responses: unknown serve "
              "stat");
    EXPECT_EQ(message([&] { reg.counter("x.compress.int8.scale"); }),
              "StatRegistry: x.compress.int8.scale: unknown compress.int8 "
              "stat");
    EXPECT_EQ(message([&] { reg.gauge("health.checks"); }),
              "StatRegistry: health.checks: must be a counter, got "
              "'gauge'");
}

}  // namespace
}  // namespace voyager
