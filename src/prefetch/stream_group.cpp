#include "prefetch/stream_group.hpp"

#include <cstdlib>
#include <limits>

#include "prefetch/stride.hpp"

namespace voyager::prefetch {

std::uint32_t
StreamGroup::class_cap(std::int64_t stride, std::uint32_t run_length) const
{
    const std::int64_t mag = stride < 0 ? -stride : stride;
    if (mag == 0)
        return 0;
    if (mag <= kDenseStride && run_length >= kDenseMinRun)
        return max_degree_;
    if (mag <= kMediumStride && run_length >= kMediumMinRun)
        return std::min(kMediumDegree, max_degree_);
    return std::min(kSparseDegree, max_degree_);
}

bool
StreamGroup::stream_protected(const Stream &s) const
{
    return s.valid && s.stride != 0 &&
           s.confidence >= kStrideConfidenceThreshold &&
           group_size(s.stride) >= kProtectMembers;
}

bool
StreamGroup::is_established(Addr pc, std::int64_t stride) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return false;
    for (const Stream &s : it->second.streams) {
        if (s.valid && s.stride == stride &&
            s.confidence >= kStrideConfidenceThreshold) {
            return true;
        }
    }
    return false;
}

void
StreamGroup::retire_stride(Addr pc, Stream &s)
{
    if (!s.valid || s.stride == 0)
        return;
    auto it = groups_.find(s.stride);
    if (it != groups_.end() && --it->second == 0)
        groups_.erase(it);
    if (s.run_length >= kHistoryMinRun) {
        if (history_.size() >= kHistorySize)
            history_.pop_front();
        history_.push_back({pc, s.stride, s.run_length, access_counter_});
        ++patterns_recorded_;
    }
}

void
StreamGroup::set_stride(Addr pc, Stream &s, std::int64_t stride)
{
    s.stride = stride;
    if (stride == 0)
        return;
    ++groups_[stride];
    // Repetition fast-track: a stream identical to one that recently
    // completed a long run skips the training phase and inherits the
    // learned run length (so the degree ramp is already complete).
    for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
        if (it->pc != pc || it->stride != stride)
            continue;
        if (access_counter_ - it->time > kHistoryWindow)
            continue;
        if (s.confidence < kStrideConfidenceThreshold)
            s.confidence = kStrideConfidenceThreshold;
        if (s.run_length < it->run_length)
            s.run_length = it->run_length;
        ++fast_tracks_;
        break;
    }
}

StreamGroup::Entry &
StreamGroup::lookup_entry(Addr pc)
{
    auto it = table_.find(pc);
    if (it != table_.end())
        return it->second;
    if (table_.size() >= kMaxPcs) {
        // Evict the LRU entry, preferring entries with no protected
        // stream so active groups survive churn from one-shot PCs.
        // The fallback keeps the table bounded regardless.
        auto pick = [&](bool respect_protection) {
            auto victim = table_.end();
            std::uint64_t oldest =
                std::numeric_limits<std::uint64_t>::max();
            for (auto e = table_.begin(); e != table_.end(); ++e) {
                if (respect_protection) {
                    bool any = false;
                    for (const Stream &s : e->second.streams)
                        any = any || stream_protected(s);
                    if (any)
                        continue;
                }
                if (e->second.last_access < oldest) {
                    oldest = e->second.last_access;
                    victim = e;
                }
            }
            return victim;
        };
        auto victim = pick(true);
        if (victim == table_.end())
            victim = pick(false);
        for (Stream &s : victim->second.streams)
            retire_stride(victim->first, s);
        table_.erase(victim);
        ++pc_evictions_;
    }
    Entry &e = table_[pc];
    e.streams.resize(kStreamsPerPc);
    return e;
}

StreamGroup::Stream *
StreamGroup::match_stream(Entry &e, Addr line)
{
    // Pass 1: the access continues a trained stream exactly.
    for (Stream &s : e.streams) {
        if (s.valid && s.stride != 0 &&
            static_cast<std::int64_t>(line) ==
                static_cast<std::int64_t>(s.last_line) + s.stride) {
            return &s;
        }
    }
    // Pass 2: the access lands near a stream head (still training, or
    // the stride just changed). Closest head wins; first slot breaks
    // ties so matching stays deterministic.
    Stream *best = nullptr;
    std::int64_t best_dist = kMatchWindow + 1;
    for (Stream &s : e.streams) {
        if (!s.valid)
            continue;
        std::int64_t d = static_cast<std::int64_t>(line) -
                         static_cast<std::int64_t>(s.last_line);
        if (d < 0)
            d = -d;
        if (d < best_dist) {
            best_dist = d;
            best = &s;
        }
    }
    return best;
}

StreamGroup::Stream &
StreamGroup::allocate_stream(Entry &e, Addr pc)
{
    Stream *victim = nullptr;
    for (Stream &s : e.streams) {
        if (!s.valid)
            return s;
    }
    // LRU among unprotected streams first; plain LRU as the bounded
    // fallback when every stream in the group is protected.
    for (int pass = 0; pass < 2 && victim == nullptr; ++pass) {
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (Stream &s : e.streams) {
            if (pass == 0 && stream_protected(s))
                continue;
            if (s.last_access < oldest) {
                oldest = s.last_access;
                victim = &s;
            }
        }
    }
    retire_stride(pc, *victim);
    ++stream_evictions_;
    *victim = Stream{};
    return *victim;
}

std::vector<Addr>
StreamGroup::on_access(const sim::LlcAccess &access)
{
    ++access_counter_;
    std::vector<Addr> out;
    Entry &e = lookup_entry(access.pc);
    e.last_access = access_counter_;

    Stream *s = match_stream(e, access.line);
    if (s == nullptr) {
        Stream &fresh = allocate_stream(e, access.pc);
        fresh.valid = true;
        fresh.last_line = access.line;
        fresh.last_access = access_counter_;
        ++streams_created_;
        return out;
    }

    // IpStride-equivalent confidence update: this is what makes the
    // single-stream behaviour bit-compatible with the stride baseline
    // after warm-up (tests/stream_group_test.cpp pins it).
    const std::int64_t stride = static_cast<std::int64_t>(access.line) -
                                static_cast<std::int64_t>(s->last_line);
    if (stride == s->stride && stride != 0) {
        if (s->confidence < kStrideConfidenceMax)
            ++s->confidence;
        ++s->run_length;
    } else {
        retire_stride(access.pc, *s);
        s->confidence = s->confidence > 0 ? s->confidence - 1 : 0;
        s->run_length = 1;
        set_stride(access.pc, *s, stride);
    }
    s->last_line = access.line;
    s->last_access = access_counter_;

    if (s->confidence >= kStrideConfidenceThreshold && s->stride != 0) {
        const std::uint32_t degree = class_cap(s->stride, s->run_length);
        out.reserve(degree);
        for (std::uint32_t k = 1; k <= degree; ++k) {
            out.push_back(static_cast<Addr>(
                static_cast<std::int64_t>(access.line) +
                s->stride * static_cast<std::int64_t>(k)));
        }
        prefetches_issued_ += out.size();
    }
    return out;
}

std::uint64_t
StreamGroup::storage_bytes() const
{
    // Per PC: tag (8) + LRU stamp (8) + per stream: last line (8),
    // stride (8), confidence/run (3), LRU stamp (8).
    const std::uint64_t per_pc =
        16 + 27ull * static_cast<std::uint64_t>(kStreamsPerPc);
    // History entry: pc (8) + stride (8) + run (2) + time (8).
    return table_.size() * per_pc + history_.size() * 26;
}

void
StreamGroup::export_stats(StatRegistry &reg,
                          const std::string &prefix) const
{
    Prefetcher::export_stats(reg, prefix);
    reg.counter(prefix + ".streams_created") = streams_created_;
    reg.counter(prefix + ".fast_tracks") = fast_tracks_;
    reg.counter(prefix + ".stream_evictions") = stream_evictions_;
    reg.counter(prefix + ".pc_evictions") = pc_evictions_;
    reg.counter(prefix + ".patterns_recorded") = patterns_recorded_;
    reg.counter(prefix + ".prefetches_issued") = prefetches_issued_;
    reg.counter(prefix + ".table_pcs") = table_.size();
    reg.counter(prefix + ".groups") = groups_.size();
}

}  // namespace voyager::prefetch
