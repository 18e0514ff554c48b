#include "sim/cache.hpp"

#include <stdexcept>
#include <string>

namespace voyager::sim {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg), assoc_(cfg.assoc)
{
    if (cfg_.assoc == 0)
        throw std::invalid_argument("cache " + cfg_.name +
                                    ": assoc must be positive");
    if (cfg_.size_bytes % (kLineSize * cfg_.assoc) != 0)
        throw std::invalid_argument(
            "cache " + cfg_.name +
            ": size_bytes is not a multiple of line size * assoc");
    const std::uint64_t sets = cfg_.num_sets();
    if (sets == 0)
        throw std::invalid_argument("cache " + cfg_.name +
                                    ": size_bytes gives zero sets");
    if ((sets & (sets - 1)) != 0)
        throw std::invalid_argument(
            "cache " + cfg_.name + ": set count " + std::to_string(sets) +
            " (size_bytes / (line size * assoc)) is not a power of two");
    set_mask_ = sets - 1;
    const std::size_t ways = static_cast<std::size_t>(sets) * assoc_;
    tags_.assign(ways, kNoEviction);
    lru_.assign(ways, 0);
    prefetched_.assign(ways, 0);
}

std::uint32_t
Cache::find_way(std::size_t base, Addr line) const
{
    const Addr *tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < assoc_; ++w)
        if (tags[w] == line)
            return w;
    return assoc_;
}

bool
Cache::access(Addr line)
{
    ++stats_.accesses;
    const std::size_t base = set_base(line);
    const std::uint32_t w = find_way(base, line);
    if (w == assoc_) {
        ++stats_.misses;
        return false;
    }
    touch(base + w);
    return true;
}

bool
Cache::access_or_fill(Addr line)
{
    ++stats_.accesses;
    const std::size_t base = set_base(line);
    const std::uint32_t w = find_way(base, line);
    if (w == assoc_) {
        ++stats_.misses;
        install(base, line, false);
        return false;
    }
    touch(base + w);
    return true;
}

void
Cache::touch(std::size_t i)
{
    ++stats_.hits;
    lru_[i] = ++lru_clock_;
    if (prefetched_[i]) {
        prefetched_[i] = 0;
        ++stats_.useful_prefetches;
    }
}

std::uint32_t
Cache::pick_victim(std::size_t base) const
{
    // Valid ways carry stamps >= 1 and invalid ways 0, so the first
    // minimum is the first empty way when there is one and the least
    // recently used way otherwise.
    const std::uint64_t *lru = lru_.data() + base;
    std::uint32_t victim = 0;
    std::uint64_t oldest = lru[0];
    for (std::uint32_t w = 1; w < assoc_; ++w) {
        if (lru[w] < oldest) {
            oldest = lru[w];
            victim = w;
        }
    }
    return victim;
}

Addr
Cache::fill(Addr line, bool prefetched)
{
    const std::size_t base = set_base(line);
    const std::uint32_t hit = find_way(base, line);
    if (hit != assoc_) {
        // Already present (e.g. prefetch raced a demand fill);
        // refresh recency but do not double-install.
        lru_[base + hit] = ++lru_clock_;
        return kNoEviction;
    }
    return install(base, line, prefetched);
}

Addr
Cache::install(std::size_t base, Addr line, bool prefetched)
{
    const std::size_t i = base + pick_victim(base);
    // An empty way holds tag kNoEviction and no prefetch bit.
    const Addr evicted = tags_[i];
    if (prefetched_[i])
        ++stats_.evicted_unused_prefetches;
    tags_[i] = line;
    prefetched_[i] = prefetched ? 1 : 0;
    lru_[i] = ++lru_clock_;
    if (prefetched)
        ++stats_.prefetch_fills;
    return evicted;
}

bool
Cache::contains(Addr line) const
{
    return find_way(set_base(line), line) != assoc_;
}

void
export_cache_stats(StatRegistry &reg, const std::string &prefix,
                   const CacheStats &s)
{
    reg.counter(prefix + ".accesses") = s.accesses;
    reg.counter(prefix + ".hits") = s.hits;
    reg.counter(prefix + ".misses") = s.misses;
    reg.counter(prefix + ".prefetch_fills") = s.prefetch_fills;
    reg.counter(prefix + ".useful_prefetches") = s.useful_prefetches;
    reg.counter(prefix + ".evicted_unused_prefetches") =
        s.evicted_unused_prefetches;
    reg.gauge(prefix + ".miss_rate") = s.miss_rate();
}

}  // namespace voyager::sim
