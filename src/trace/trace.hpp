/**
 * @file
 * In-memory trace container with binary serialization and the
 * footprint statistics reported in the paper's Table 2.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/access.hpp"

namespace voyager::trace {

/**
 * Error raised by the trace readers. Carries the source file name
 * (empty when reading from an anonymous stream) and the 0-based record
 * ordinal (kNoRecord when the failure precedes the record section) in
 * addition to a message that quotes the offending bytes.
 */
class TraceError : public std::runtime_error
{
  public:
    static constexpr std::uint64_t kNoRecord = ~0ull;

    TraceError(const std::string &what, std::string file,
               std::uint64_t record)
        : std::runtime_error(what), file_(std::move(file)),
          record_(record)
    {
    }

    /** Source file name, or empty for anonymous streams. */
    const std::string &file() const { return file_; }
    /** Record index, or kNoRecord. */
    std::uint64_t record() const { return record_; }

  private:
    std::string file_;
    std::uint64_t record_;
};

/** Footprint statistics of a trace (paper Table 2). */
struct TraceStats
{
    std::uint64_t accesses = 0;        ///< dynamic memory accesses
    std::uint64_t instructions = 0;    ///< total dynamic instructions
    std::uint64_t unique_pcs = 0;
    std::uint64_t unique_lines = 0;    ///< unique cache-line addresses
    std::uint64_t unique_pages = 0;
    double load_fraction = 0.0;
};

/**
 * A dynamic memory-access trace plus workload metadata.
 *
 * Accesses are ordered by instr_id; instr_id gaps represent non-memory
 * instructions (the core model charges them as single-cycle ops).
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /**
     * Reserve room for n accesses. A buffer of 2 MiB or more is
     * advised for transparent huge pages: generators fill it front to
     * back, and 4 KiB pages would fault once per 128 accesses.
     */
    void reserve(std::size_t n);

    /** Append an access; instr_id must not decrease. */
    void
    append(const MemoryAccess &a)
    {
        assert(accesses_.empty() ||
               a.instr_id >= accesses_.back().instr_id);
        accesses_.push_back(a);
        if (a.instr_id + 1 > instructions_)
            instructions_ = a.instr_id + 1;
    }

    const std::vector<MemoryAccess> &accesses() const { return accesses_; }
    std::size_t size() const { return accesses_.size(); }
    bool empty() const { return accesses_.empty(); }
    const MemoryAccess &operator[](std::size_t i) const
    {
        return accesses_[i];
    }

    /** Total dynamic instruction count (>= last instr_id + 1). */
    std::uint64_t instructions() const { return instructions_; }
    void set_instructions(std::uint64_t n) { instructions_ = n; }

    /** Compute footprint statistics (one pass). */
    TraceStats stats() const;

    /** Keep only the first n accesses (for scaled runs). */
    void truncate(std::size_t n);

    /** Serialize to a compact binary stream. */
    void save_binary(std::ostream &os) const;
    /**
     * Deserialize from save_binary output.
     * @param file source name for error messages and TraceError.
     * @throws TraceError at the first malformed byte, naming the file,
     *         the record index and the offending bytes.
     */
    static Trace load_binary(std::istream &is,
                             const std::string &file = {});

    /** File convenience wrappers. @throws TraceError /
     *  std::runtime_error on I/O. */
    void save_binary_file(const std::string &path) const;
    static Trace load_binary_file(const std::string &path);

  private:
    std::string name_;
    std::vector<MemoryAccess> accesses_;
    std::uint64_t instructions_ = 0;
};

}  // namespace voyager::trace
