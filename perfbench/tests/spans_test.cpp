#include <gtest/gtest.h>

#include <stdexcept>

#include "spans.hpp"

namespace perfbench {
namespace {

std::int64_t
duration(const SpanRecorder &rec, std::int32_t id)
{
    const Span &s = rec.spans()[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
}

/** Spin for about `ns` so nested spans have distinct durations. */
void
spin(std::int64_t ns)
{
    const std::int64_t t0 = now_ns();
    while (now_ns() - t0 < ns) {
    }
}

TEST(Spans, SelfTimeSubtractsChildDurations)
{
    SpanRecorder rec;
    const auto root = rec.open("phase");
    spin(20000);
    const auto a = rec.open("a");
    spin(20000);
    const auto inner = rec.open("a.inner");
    spin(20000);
    rec.close(inner);
    rec.close(a);
    const auto b = rec.open("b");
    spin(20000);
    rec.close(b);
    rec.close(root);
    const auto &s = rec.spans();
    EXPECT_EQ(s[static_cast<std::size_t>(inner)].self_ns,
              duration(rec, inner));
    EXPECT_EQ(s[static_cast<std::size_t>(a)].self_ns,
              duration(rec, a) - duration(rec, inner));
    EXPECT_EQ(s[static_cast<std::size_t>(b)].self_ns, duration(rec, b));
    EXPECT_EQ(s[static_cast<std::size_t>(root)].self_ns,
              duration(rec, root) - duration(rec, a) - duration(rec, b));
    std::int64_t self_sum = 0;
    for (const Span &x : s) {
        EXPECT_GT(x.self_ns, 0);
        self_sum += x.self_ns;
    }
    EXPECT_EQ(self_sum, duration(rec, root));
}

TEST(Spans, TotalsSumByName)
{
    SpanRecorder rec;
    const auto root = rec.open("phase");
    const auto x1 = rec.open("x");
    rec.close(x1);
    const auto x2 = rec.open("x");
    spin(1000);
    rec.close(x2);
    rec.close(root);
    const auto t = rec.totals();
    EXPECT_EQ(t.at("x").calls, 2u);
    EXPECT_DOUBLE_EQ(t.at("x").seconds,
                     static_cast<double>(duration(rec, x1)) * 1e-9 +
                         static_cast<double>(duration(rec, x2)) * 1e-9);
    EXPECT_DOUBLE_EQ(
        t.at("phase").self_seconds,
        static_cast<double>(duration(rec, root) - duration(rec, x1) -
                            duration(rec, x2)) *
            1e-9);
}

TEST(Spans, AggregatesCountAsChildTime)
{
    SpanRecorder rec;
    const auto root = rec.open("phase");
    const auto child = rec.open("call");
    rec.add("hot", 1000);
    rec.add("hot", 500);
    rec.close(child);
    rec.add("hot", 250);
    rec.close(root);
    const auto t = rec.totals();
    EXPECT_EQ(t.at("hot").calls, 3u);
    EXPECT_DOUBLE_EQ(t.at("hot").seconds, 1750e-9);
    ASSERT_EQ(rec.aggregates().size(), 2u);  // one per parent span
    EXPECT_EQ(rec.spans()[static_cast<std::size_t>(child)].self_ns,
              duration(rec, child) - 1500);
}

TEST(Spans, AttributionAddsUpToThePhase)
{
    SpanRecorder rec;
    for (int rep = 0; rep < 2; ++rep) {
        const auto root = rec.open("phase");
        for (int i = 0; i < 3; ++i) {
            ScopedSpan s(&rec, "layer");
            ScopedSpan inner(&rec, "kernel");
            rec.add("hot", 10);
        }
        rec.close(root);
    }
    const auto other = rec.open("other");
    rec.close(other);
    double wall = 0.0;
    for (const Span &s : rec.spans())
        if (s.name == "phase")
            wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    double sum = 0.0;
    const auto parts = rec.attribution("phase");
    for (const auto &[name, secs] : parts)
        sum += secs;
    EXPECT_NEAR(sum, wall, 1e-12);
    EXPECT_EQ(parts.count("other"), 0u);
    EXPECT_EQ(parts.count("unattributed"), 1u);
    EXPECT_DOUBLE_EQ(parts.at("hot"), 60e-9);
}

TEST(Spans, OutOfOrderCloseThrows)
{
    SpanRecorder rec;
    const auto a = rec.open("a");
    rec.open("b");
    EXPECT_THROW(rec.close(a), std::logic_error);
}

TEST(Spans, AggregateOutsideASpanThrows)
{
    SpanRecorder rec;
    EXPECT_THROW(rec.add("hot", 1), std::logic_error);
}

TEST(Spans, NullRecorderScopeIsANoOp)
{
    ScopedSpan s(nullptr, "nothing");
    SUCCEED();
}

}  // namespace
}  // namespace perfbench
