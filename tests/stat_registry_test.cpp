/**
 * @file
 * Tests for the observability layer: StatRegistry get-or-create and
 * collision semantics, JSON/CSV emission, string escaping, volatile
 * filtering, name sanitization, Table export, and the Histogram
 * quantile edge cases the registry's emitter depends on.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "util/stat_registry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace voyager {
namespace {

TEST(StatRegistry, CounterGetOrCreate)
{
    StatRegistry reg;
    reg.counter("a.b") = 3;
    reg.counter("a.b") += 2;
    EXPECT_EQ(reg.counter("a.b"), 5u);
    EXPECT_TRUE(reg.has("a.b"));
    EXPECT_EQ(reg.kind("a.b"), StatKind::Counter);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, ReferencesStableAcrossInserts)
{
    StatRegistry reg;
    std::uint64_t &c = reg.counter("m");
    for (int i = 0; i < 100; ++i)
        reg.counter(std::string("x").append(std::to_string(i)));
    c = 7;  // must still point at the live entry
    EXPECT_EQ(reg.counter("m"), 7u);
}

TEST(StatRegistry, KindCollisionThrows)
{
    StatRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::runtime_error);
    EXPECT_THROW(reg.running("x"), std::runtime_error);
    EXPECT_THROW(reg.histogram("x", 0.0, 1.0, 4), std::runtime_error);
    // Same kind is get-or-create, not a collision.
    EXPECT_NO_THROW(reg.counter("x"));
}

TEST(StatRegistry, HistogramGeometryCollisionThrows)
{
    StatRegistry reg;
    reg.histogram("h", 0.0, 10.0, 10);
    EXPECT_NO_THROW(reg.histogram("h", 0.0, 10.0, 10));
    EXPECT_THROW(reg.histogram("h", 0.0, 20.0, 10), std::runtime_error);
    EXPECT_THROW(reg.histogram("h", 0.0, 10.0, 5), std::runtime_error);
}

TEST(StatRegistry, EmptyNameThrows)
{
    StatRegistry reg;
    EXPECT_THROW(reg.counter(""), std::runtime_error);
}

TEST(StatRegistry, BadNameSegmentThrows)
{
    StatRegistry reg;
    for (const char *name :
         {".a", "a.", "a..b", "A.b", "a.b c", "a/b", "a.b\n", "\xc3\xa9"}) {
        SCOPED_TRACE(name);
        EXPECT_THROW(reg.counter(name), std::runtime_error);
        EXPECT_THROW(reg.gauge(name), std::runtime_error);
    }
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_NO_THROW(reg.counter("isb+bo.d-1.x_2"));
}

TEST(StatRegistry, UnknownKindThrows)
{
    StatRegistry reg;
    EXPECT_THROW(reg.kind("nope"), std::runtime_error);
}

TEST(StatRegistry, EmptyRegistryEmitsValidDocument)
{
    StatRegistry reg;
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"schema\": \"voyager-stats\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"stats\": {}"), std::string::npos);
}

TEST(StatRegistry, JsonContainsAllKinds)
{
    StatRegistry reg;
    reg.counter("c") = 42;
    reg.gauge("g") = 0.5;
    reg.running("r").add(1.0);
    reg.running("r").add(3.0);
    auto &h = reg.histogram("h", 0.0, 10.0, 10);
    h.add(5.0);
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"c\": {\"kind\": \"counter\", \"value\": 42}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"running\""), std::string::npos);
    EXPECT_NE(doc.find("\"mean\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\""), std::string::npos);
}

TEST(StatRegistry, VolatileExcludedOnRequest)
{
    StatRegistry reg;
    reg.counter("keep") = 1;
    reg.gauge("wall.seconds", true) = 1.25;
    StatEmitOptions opts;
    opts.include_volatile = false;
    const std::string doc = reg.json(opts);
    EXPECT_NE(doc.find("keep"), std::string::npos);
    EXPECT_EQ(doc.find("wall.seconds"), std::string::npos);
    // Default emission keeps it.
    EXPECT_NE(reg.json().find("wall.seconds"), std::string::npos);
}

TEST(StatRegistry, MetaEmitted)
{
    StatRegistry reg;
    reg.set_meta("bench", "fig5");
    EXPECT_NE(reg.json().find("\"bench\": \"fig5\""),
              std::string::npos);
}

TEST(StatRegistry, CsvRows)
{
    StatRegistry reg;
    reg.counter("a") = 2;
    reg.running("r").add(4.0);
    std::ostringstream os;
    reg.write_csv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("name,kind,field,value"), std::string::npos);
    EXPECT_NE(csv.find("a,counter,value,2"), std::string::npos);
    EXPECT_NE(csv.find("r,running,mean,4"), std::string::npos);
}

TEST(StatRegistry, ScopedTimerAccumulates)
{
    StatRegistry reg;
    {
        StatRegistry::ScopedTimer t1(reg, "time.x");
    }
    {
        StatRegistry::ScopedTimer t2(reg, "time.x");
    }
    EXPECT_EQ(reg.counter("time.x.count", true), 2u);
    EXPECT_GE(reg.gauge("time.x.seconds", true), 0.0);
}

TEST(StatRegistry, ClearEmpties)
{
    StatRegistry reg;
    reg.counter("a");
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_FALSE(reg.has("a"));
}

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, RoundTripAndNonFinite)
{
    EXPECT_EQ(json_number(0.0), "0");
    EXPECT_EQ(json_number(2.5), "2.5");
    EXPECT_EQ(json_number(1.0 / 0.0), "null");
    EXPECT_EQ(json_number(-1.0 / 0.0), "null");
    EXPECT_EQ(json_number(0.0 / 0.0), "null");
    // Shortest round-trip form of a noisy double parses back exactly.
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(StatNameSegment, Sanitizes)
{
    EXPECT_EQ(stat_name_segment("isb+bo"), "isb+bo");
    EXPECT_EQ(stat_name_segment("Voyager W/O Delta"),
              "voyager_w_o_delta");
    EXPECT_EQ(stat_name_segment("a.b c"), "a_b_c");
}

TEST(TableExportStats, NumericRowsBecomeGauges)
{
    Table t({"benchmark", "isb", "voyager"});
    t.add_row("bfs", {0.25, 0.75}, 3);
    t.add_row({"string-only", "n/a", "n/a"});  // not exported
    StatRegistry reg;
    t.export_stats(reg, "fig5");
    EXPECT_DOUBLE_EQ(reg.gauge("fig5.bfs.isb"), 0.25);
    EXPECT_DOUBLE_EQ(reg.gauge("fig5.bfs.voyager"), 0.75);
    EXPECT_EQ(reg.size(), 2u);
}

// --- Histogram::quantile edge cases (the bug class satellite 3 is
// after: the old truncating rank collapsed low quantiles to lo). ---

TEST(HistogramQuantile, EmptyReturnsLo)
{
    Histogram h(5.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(HistogramQuantile, SingleSampleAnyQuantile)
{
    Histogram h(0.0, 100.0, 10);
    h.add(95.0);  // top bucket
    // Regression: truncation made q<1 return lo for a single sample.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 95.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.01), 95.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 95.0);
}

TEST(HistogramQuantile, ClampedOutOfRangeQ)
{
    Histogram h(0.0, 10.0, 10);
    h.add(2.5);
    h.add(7.5);
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramQuantile, ZeroAndOne)
{
    Histogram h(0.0, 10.0, 10);
    h.add(1.5);
    h.add(8.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);  // first sample's bucket
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.5);  // last sample's bucket
}

TEST(HistogramQuantile, AllUnderflowReturnsLo)
{
    Histogram h(10.0, 20.0, 5);
    h.add(1.0);
    h.add(2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

TEST(HistogramQuantile, AllOverflowReturnsHi)
{
    Histogram h(0.0, 10.0, 5);
    h.add(50.0);
    h.add(60.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

// --- Near-empty-histogram interpolation regressions (serving-layer
// satellite): with fewer than 10 samples one bucket holds almost
// everything, and the midpoint rule answered the identical value for
// every quantile routed through it — p99 collapsed onto p50 in the
// queue-depth histograms at low tenant counts. The fix interpolates
// by rank within the bucket: sample r of n sits at (r - 0.5) / n. ---

TEST(HistogramQuantile, P99DoesNotCollapseOntoP50InOneBucket)
{
    Histogram h(0.0, 64.0, 64);
    for (int i = 0; i < 5; ++i)
        h.add(3.0);  // all five samples share bucket [3, 4)
    // Ranks 3 and 5 of 5 sit at fractions 0.5 and 0.9 of the bucket.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.9);
    EXPECT_LT(h.quantile(0.5), h.quantile(0.99));
}

TEST(HistogramQuantile, TwoSamplesGiveDistinctTailQuantiles)
{
    Histogram h(0.0, 256.0, 64);  // the serve.queue_depth geometry
    h.add(1.0);
    h.add(1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);   // rank 1 of 2 -> 0.25
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0);  // rank 2 of 2 -> 0.75
}

TEST(HistogramQuantile, FewSamplesInterpolateMonotonically)
{
    Histogram h(0.0, 256.0, 64);
    for (const double v : {1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 8.0})
        h.add(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.5),
                     4.0 * (3.5 / 6.0));       // rank 4 of 6 in [0,4)
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);  // lone sample in [8,12)
    double prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
        prev = cur;
    }
}

}  // namespace
}  // namespace voyager
