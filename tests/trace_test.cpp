/**
 * @file
 * Unit tests for the trace layer: access records, the trace container,
 * serialization round trips and the recorder/layout helpers.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "trace/gen/recorder.hpp"
#include "trace/trace.hpp"

namespace voyager::trace {
namespace {

MemoryAccess
acc(std::uint64_t id, Addr pc, Addr addr, bool load = true)
{
    return {id, pc, addr, load};
}

TEST(MemoryAccess, Decomposition)
{
    const MemoryAccess a = acc(0, 0x400000, 0x12345678);
    EXPECT_EQ(a.line(), 0x12345678ull >> 6);
    EXPECT_EQ(a.page(), 0x12345678ull >> 12);
    EXPECT_EQ(a.offset(), (0x12345678ull >> 6) & 63);
}

TEST(Trace, AppendTracksInstructions)
{
    Trace t("x");
    t.append(acc(0, 1, 100));
    t.append(acc(5, 2, 200));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.instructions(), 6u);
    EXPECT_EQ(t[1].pc, 2u);
}

TEST(Trace, StatsCountsUniqueEntities)
{
    Trace t("x");
    t.append(acc(0, 1, 0x1000));
    t.append(acc(1, 1, 0x1040));          // same page, new line
    t.append(acc(2, 2, 0x2000, false));   // store, new page
    t.append(acc(3, 2, 0x1000));          // repeat line
    const auto s = t.stats();
    EXPECT_EQ(s.accesses, 4u);
    EXPECT_EQ(s.unique_pcs, 2u);
    EXPECT_EQ(s.unique_lines, 3u);
    EXPECT_EQ(s.unique_pages, 2u);
    EXPECT_DOUBLE_EQ(s.load_fraction, 0.75);
}

TEST(Trace, TruncateShortens)
{
    Trace t("x");
    for (std::uint64_t i = 0; i < 10; ++i)
        t.append(acc(i * 2, 1, 0x1000 + i * 64));
    t.truncate(3);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.instructions(), 5u);
    t.truncate(100);  // no-op
    EXPECT_EQ(t.size(), 3u);
}

TEST(Trace, TruncateReleasesTheTail)
{
    Trace t("x");
    t.reserve(4096);
    for (std::uint64_t i = 0; i < 4096; ++i)
        t.append(acc(i * 3, 0x400000 + (i % 7) * 4, 0x1000 + i * 64,
                     i % 5 != 0));
    const std::vector<MemoryAccess> before = t.accesses();
    t.truncate(100);
    ASSERT_EQ(t.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(t.accesses()[i], before[i]) << i;
    EXPECT_EQ(t.instructions(), before[99].instr_id + 1);
    // A generator's full-length buffer must not outlive the cut.
    EXPECT_LE(t.accesses().capacity(), 100u);
}

TEST(Trace, BinaryRoundTrip)
{
    Trace t("roundtrip");
    t.append(acc(0, 0x400100, 0xdeadbeef));
    t.append(acc(7, 0x400104, 0xcafebabe, false));
    t.set_instructions(50);
    std::stringstream ss;
    t.save_binary(ss);
    const Trace u = Trace::load_binary(ss);
    EXPECT_EQ(u.name(), "roundtrip");
    EXPECT_EQ(u.instructions(), 50u);
    ASSERT_EQ(u.size(), 2u);
    EXPECT_EQ(u[0], t[0]);
    EXPECT_EQ(u[1], t[1]);
}

TEST(Trace, BinaryRejectsGarbage)
{
    std::stringstream ss;
    ss << "not a trace";
    EXPECT_THROW(Trace::load_binary(ss), std::runtime_error);
}

// ---------------------------------------------------------------------
// Malformed inputs, one class at a time: every error must be a
// TraceError carrying the file, the record index and the offending
// bytes.
// ---------------------------------------------------------------------

/** A small serialized trace as a mutable byte string. */
std::string
serialized(std::size_t n = 6)
{
    Trace t("mal");
    for (std::uint64_t i = 0; i < n; ++i)
        t.append(acc(i * 3, 0x400000 + i, 0x1000 + i * 64, i % 2 == 0));
    std::ostringstream os;
    t.save_binary(os);
    return os.str();
}

Trace
load_bytes(const std::string &bytes,
           const std::string &file = "input.trc")
{
    std::istringstream is(bytes);
    return Trace::load_binary(is, file);
}

/** Byte offset of record i's first byte: the header is magic +
 *  version + name_len (12 bytes), the name, then two u64 counts. */
std::size_t
record_offset(std::size_t i, std::size_t name_len = 3)
{
    return 12 + name_len + 16 + i * 25;
}

TEST(TraceErrors, BadMagicNamesTheFile)
{
    std::string bytes = serialized();
    bytes[0] = 'X';
    try {
        load_bytes(bytes);
        FAIL() << "bad magic accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.file(), "input.trc");
        EXPECT_EQ(e.record(), TraceError::kNoRecord);
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("input.trc"),
                  std::string::npos);
    }
}

TEST(TraceErrors, TruncatedHeaderThrows)
{
    const std::string bytes = serialized();
    // Every cut inside the header region is a header truncation.
    for (const std::size_t cut : {0u, 3u, 9u, 15u, 30u}) {
        try {
            load_bytes(bytes.substr(0, cut));
            FAIL() << "truncation at " << cut << " accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.record(), TraceError::kNoRecord) << cut;
            EXPECT_NE(std::string(e.what()).find("truncated"),
                      std::string::npos)
                << cut;
        }
    }
}

TEST(TraceErrors, ImplausibleNameLengthThrows)
{
    std::string bytes = serialized();
    bytes[8] = '\xff';  // name_len low byte -> huge
    bytes[9] = '\xff';
    try {
        load_bytes(bytes);
        FAIL() << "implausible name length accepted";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("name length"),
                  std::string::npos);
    }
}

TEST(TraceErrors, TruncatedRecordReportsItsIndex)
{
    const std::string bytes = serialized();
    const std::size_t cut = record_offset(4) + 7;  // mid record 4
    try {
        load_bytes(bytes.substr(0, cut));
        FAIL() << "mid-record truncation accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.record(), 4u);
        EXPECT_NE(std::string(e.what()).find("record 4"),
                  std::string::npos);
    }
}

TEST(TraceErrors, BadKindByteQuotesTheBytes)
{
    std::string bytes = serialized();
    bytes[record_offset(2) + 24] = '\x07';  // record 2's kind byte
    try {
        load_bytes(bytes);
        FAIL() << "bad kind byte accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.record(), 2u);
        const std::string what = e.what();
        EXPECT_NE(what.find("bad access-kind byte 0x07"),
                  std::string::npos);
        EXPECT_NE(what.find("'"), std::string::npos)
            << "offending bytes not quoted: " << what;
    }
}

TEST(TraceErrors, NonMonotonicIdReportsItsRecord)
{
    std::string bytes = serialized();
    bytes[record_offset(3)] = '\x01';  // record 3's instr_id -> 1 < 6
    try {
        load_bytes(bytes);
        FAIL() << "non-monotonic instr_id accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.record(), 3u);
        EXPECT_NE(std::string(e.what()).find("non-monotonic instr_id"),
                  std::string::npos);
    }
}

TEST(Recorder, AdvancesInstructionIds)
{
    Trace t("r");
    TraceRecorder rec(t);
    rec.load(0x400000, 0x1000);
    rec.compute(3);
    rec.store(0x400004, 0x2000);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].instr_id, 0u);
    EXPECT_EQ(t[1].instr_id, 4u);
    EXPECT_TRUE(t[0].is_load);
    EXPECT_FALSE(t[1].is_load);
    EXPECT_EQ(rec.instr_id(), 5u);
}

TEST(Layout, PcEncodesBasicBlock)
{
    const Addr pc = layout::pc_of(3, 2);
    EXPECT_EQ(pc, layout::kCodeBase + 3 * 256 + 8);
    // Basic-block id recoverable via >> 8 (the labeler's default).
    EXPECT_EQ(layout::pc_of(3, 0) >> 8, layout::pc_of(3, 63) >> 8);
    EXPECT_NE(layout::pc_of(3, 0) >> 8, layout::pc_of(4, 0) >> 8);
}

TEST(Layout, DataBasesAreDisjointPages)
{
    EXPECT_NE(page_of(layout::data_base(0)), page_of(layout::data_base(1)));
    EXPECT_GT(layout::data_base(1) - layout::data_base(0), 1ull << 29);
}

}  // namespace
}  // namespace voyager::trace
