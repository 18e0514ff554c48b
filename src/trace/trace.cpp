#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "util/huge_pages.hpp"
#include "util/string_util.hpp"

namespace voyager::trace {

namespace {

constexpr std::uint32_t kMagic = 0x564f5954;  // "VOYT"
constexpr std::uint32_t kVersion = 1;
/** Longest trace name load_binary will believe; a corrupt length
 *  field must not turn into a multi-gigabyte allocation. */
constexpr std::uint32_t kMaxNameLen = 4096;

template <typename T>
void
write_pod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Printable rendering of raw bytes for error messages. */
std::string
quote_bytes(std::string_view s, std::size_t max = 48)
{
    std::string out;
    for (std::size_t i = 0; i < s.size() && i < max; ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c < 0x7f && c != '\\')
            out += static_cast<char>(c);
        else
            out += strfmt("\\x%02x", c);
    }
    if (s.size() > max)
        out += "...";
    return out;
}

/** Throw a TraceError naming file, record and offending bytes. */
[[noreturn]] void
fail(const std::string &file, std::uint64_t record,
     const std::string &problem, std::string_view bytes)
{
    std::string msg = "trace: " + problem;
    if (!file.empty())
        msg += " in " + file;
    if (record != TraceError::kNoRecord)
        msg += strfmt(" at record %llu",
                      static_cast<unsigned long long>(record));
    if (!bytes.empty())
        msg += ": '" + quote_bytes(bytes) + "'";
    throw TraceError(msg, file, record);
}

/** Read a header POD. */
template <typename T>
T
read_header_pod(std::istream &is, const std::string &file,
                const char *what)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!is) {
        fail(file, TraceError::kNoRecord,
             std::string("truncated stream reading ") + what, {});
    }
    return v;
}

}  // namespace

void
Trace::reserve(std::size_t n)
{
    accesses_.reserve(n);
    advise_huge_pages(accesses_.data(),
                      accesses_.capacity() * sizeof(MemoryAccess));
}

TraceStats
Trace::stats() const
{
    TraceStats s;
    s.accesses = accesses_.size();
    s.instructions = instructions_;
    std::unordered_set<Addr> pcs;
    std::unordered_set<Addr> lines;
    std::unordered_set<Addr> pages;
    std::uint64_t loads = 0;
    for (const auto &a : accesses_) {
        pcs.insert(a.pc);
        lines.insert(a.line());
        pages.insert(a.page());
        loads += a.is_load ? 1 : 0;
    }
    s.unique_pcs = pcs.size();
    s.unique_lines = lines.size();
    s.unique_pages = pages.size();
    s.load_fraction =
        s.accesses ? static_cast<double>(loads) /
                         static_cast<double>(s.accesses)
                   : 0.0;
    return s;
}

void
Trace::truncate(std::size_t n)
{
    if (n >= accesses_.size())
        return;
    const std::size_t dropped = accesses_.size() - n;
    accesses_.resize(n);
    // Give the buffer back when the cut drops more accesses than it
    // keeps: the dropped ones were written, so their pages are
    // resident, and copying the kept ones is the cheaper side. A small
    // trim (a generator overrunning its budget) keeps the buffer.
    if (dropped > n)
        accesses_.shrink_to_fit();
    instructions_ =
        accesses_.empty() ? 0 : accesses_.back().instr_id + 1;
}

void
Trace::save_binary(std::ostream &os) const
{
    write_pod(os, kMagic);
    write_pod(os, kVersion);
    const auto name_len = static_cast<std::uint32_t>(name_.size());
    write_pod(os, name_len);
    os.write(name_.data(), name_len);
    write_pod(os, instructions_);
    write_pod(os, static_cast<std::uint64_t>(accesses_.size()));
    for (const auto &a : accesses_) {
        write_pod(os, a.instr_id);
        write_pod(os, a.pc);
        write_pod(os, a.addr);
        write_pod(os, static_cast<std::uint8_t>(a.is_load ? 1 : 0));
    }
}

Trace
Trace::load_binary(std::istream &is, const std::string &file)
{
    const auto magic = read_header_pod<std::uint32_t>(is, file, "magic");
    if (magic != kMagic) {
        fail(file, TraceError::kNoRecord, "bad magic",
             std::string_view(reinterpret_cast<const char *>(&magic),
                              sizeof(magic)));
    }
    const auto version =
        read_header_pod<std::uint32_t>(is, file, "version");
    if (version != kVersion) {
        fail(file, TraceError::kNoRecord,
             strfmt("unsupported version %u", version), {});
    }
    Trace t;
    const auto name_len =
        read_header_pod<std::uint32_t>(is, file, "name length");
    if (name_len > kMaxNameLen) {
        fail(file, TraceError::kNoRecord,
             strfmt("implausible name length %u", name_len), {});
    }
    t.name_.resize(name_len);
    is.read(t.name_.data(), name_len);
    if (!is) {
        fail(file, TraceError::kNoRecord,
             "truncated stream reading name", {});
    }
    t.instructions_ =
        read_header_pod<std::uint64_t>(is, file, "instruction count");
    const auto n =
        read_header_pod<std::uint64_t>(is, file, "access count");
    // A corrupt count must not become a giant allocation; the record
    // loop fails at truncation regardless.
    t.accesses_.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));

    constexpr std::size_t kRecSize = 3 * sizeof(std::uint64_t) + 1;
    std::uint64_t last_id = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        char buf[kRecSize];
        is.read(buf, kRecSize);
        if (!is) {
            fail(file, i, "truncated stream",
                 std::string_view(
                     buf, static_cast<std::size_t>(is.gcount())));
        }
        MemoryAccess a;
        std::uint8_t kind_byte = 0;
        std::memcpy(&a.instr_id, buf, sizeof(std::uint64_t));
        std::memcpy(&a.pc, buf + 8, sizeof(std::uint64_t));
        std::memcpy(&a.addr, buf + 16, sizeof(std::uint64_t));
        std::memcpy(&kind_byte, buf + 24, 1);
        std::string problem;
        if (kind_byte > 1)
            problem = strfmt("bad access-kind byte 0x%02x", kind_byte);
        else if (a.instr_id < last_id)
            problem = "non-monotonic instr_id";
        if (!problem.empty())
            fail(file, i, problem, std::string_view(buf, kRecSize));
        a.is_load = kind_byte != 0;
        last_id = a.instr_id;
        t.append(a);
    }
    return t;
}

void
Trace::save_binary_file(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("trace: cannot open " + path);
    save_binary(os);
}

Trace
Trace::load_binary_file(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("trace: cannot open " + path);
    return load_binary(is, path);
}

}  // namespace voyager::trace
