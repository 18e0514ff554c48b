/**
 * @file
 * Header-only open-addressing hash containers for hot-path metadata
 * (DESIGN.md §5.15). The design ports the cache-line-bucket +
 * tag-fingerprint probing idea of TurboHash (Zhao et al.) onto a
 * dependency-free flat layout:
 *
 *  - capacity is a power of two, grouped into 8-slot buckets;
 *  - each bucket owns a 64-bit *tag word* holding one 1-byte
 *    fingerprint per slot (top 7 hash bits), probed with SWAR bit
 *    tricks before any key comparison, so a miss usually costs one
 *    word load;
 *  - tag words live in their own dense array ahead of the slots
 *    (cache-line aligned, 1/16th the slot footprint for 8-byte
 *    pairs), so the fingerprint probe stays cache-resident even when
 *    the slot array has long spilled out of the LLC: a hit touches
 *    ~one cold line, a miss usually zero (an `std::unordered_map`
 *    lookup chases at least two scattered lines and pays a
 *    modulo-by-prime on the way);
 *  - collisions fall through to linear *bucket* probing, which keeps
 *    displaced entries on the next line instead of a fresh node;
 *  - erase uses tombstones, downgraded to empties whenever the
 *    bucket still contains a true empty slot, so churn-heavy users
 *    (ISB remapping) do not decay the table;
 *  - `storage_bytes()` reports the allocation footprint so
 *    prefetcher metadata accounting stays honest.
 *
 * Iteration order is deterministic for a fixed insertion sequence but
 * differs from `std::unordered_map`; only iteration-order-independent
 * call sites may swap this container in (golden stats stay
 * byte-identical under that rule).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/huge_pages.hpp"

namespace voyager {

namespace flat_detail {

/** splitmix64 finalizer: full-avalanche mix of the key bits. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/**
 * Fibonacci multiply + fold: one imul on the probe's critical path
 * instead of mix64's two. The golden-ratio product mixes every key
 * bit into the top bits (tag fingerprint); folding the high half down
 * mixes them into the low bits too (bucket index). Plenty for the
 * address/id/delta keys the hot paths use; full-avalanche callers
 * keep mix64.
 */
constexpr std::uint64_t
mul_fold(std::uint64_t x)
{
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 32;
    return x;
}

/** FNV-1a over a byte range (string keys). */
constexpr std::uint64_t
fnv1a(const char *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    return mix64(h);
}

inline constexpr std::uint64_t kLsbs = 0x0101010101010101ull;
inline constexpr std::uint64_t kMsbs = 0x8080808080808080ull;

/** Free-slot markers: occupied fingerprints are 7-bit (<= 0x7f). */
inline constexpr std::uint8_t kEmptyTag = 0x80;
inline constexpr std::uint8_t kTombTag = 0x81;
inline constexpr std::uint64_t kEmptyWord = kEmptyTag * kLsbs;

/**
 * MSB set in every byte of `w` equal to `b`. The classic SWAR
 * zero-byte test; it can report a false positive in a byte *above* a
 * true match (borrow propagation), which is harmless here: tag hits
 * are confirmed by a key compare, and the empty-scan only asks
 * whether *any* byte matches.
 */
constexpr std::uint64_t
match_bytes(std::uint64_t w, std::uint8_t b)
{
    const std::uint64_t x = w ^ (kLsbs * b);
    return (x - kLsbs) & ~x & kMsbs;
}

/** MSB set in every free (empty or tombstone) byte of `w`. */
constexpr std::uint64_t
free_bytes(std::uint64_t w)
{
    return w & kMsbs;
}

/** Payload type of FlatHashSet's underlying map. */
struct Empty
{
};

}  // namespace flat_detail

/**
 * Default hash functor. Integral and enum keys go through a
 * single-multiply Fibonacci mix (the identity hash `std::hash` uses
 * for integers clusters structural addresses and line numbers badly;
 * a full splitmix64 finalizer doubles the multiplies on the probe's
 * critical path for no measurable quality gain on address keys);
 * strings hash with FNV-1a. Specialize for custom key types.
 */
template <typename K, typename Enable = void>
struct FlatHash;

template <typename K>
struct FlatHash<K,
                std::enable_if_t<std::is_integral_v<K> ||
                                 std::is_enum_v<K>>>
{
    constexpr std::uint64_t
    operator()(K key) const
    {
        return flat_detail::mul_fold(
            static_cast<std::uint64_t>(key));
    }
};

template <>
struct FlatHash<std::string>
{
    std::uint64_t
    operator()(std::string_view s) const
    {
        return flat_detail::fnv1a(s.data(), s.size());
    }
};

/**
 * Open-addressing hash map with 8-slot tag-fingerprint buckets.
 *
 * Drop-in for the `std::unordered_map` operations the hot paths use:
 * `find`/`count`/`contains`, `emplace`, `operator[]`, `erase(key)`,
 * `size`, `clear`, `reserve`, plus forward iteration over
 * `{first, second}` slots (structured bindings work). Pointer/iterator
 * stability across mutation is NOT provided — any insert may rehash.
 *
 * @tparam K    key type (needs operator==)
 * @tparam V    mapped type
 * @tparam Hash functor returning a well-mixed 64-bit hash
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatHashMap
{
  public:
    /** One occupied entry; named like std::pair for call-site parity. */
    struct Slot
    {
        K first;
        V second;
    };

    static constexpr std::size_t kSlotsPerBucket = 8;

  private:
    template <bool Const>
    class Iter
    {
        using MapPtr = std::conditional_t<Const, const FlatHashMap *,
                                          FlatHashMap *>;

      public:
        using value_type = Slot;
        using reference =
            std::conditional_t<Const, const Slot &, Slot &>;
        using pointer =
            std::conditional_t<Const, const Slot *, Slot *>;

        Iter() = default;
        Iter(MapPtr map, std::size_t bucket, std::size_t slot)
            : map_(map), bucket_(bucket), slot_(slot)
        {
        }
        /** iterator -> const_iterator conversion. */
        operator Iter<true>() const
        {
            return Iter<true>(map_, bucket_, slot_);
        }

        reference operator*() const
        {
            return *map_->slot_at(bucket_, slot_);
        }
        pointer operator->() const
        {
            return map_->slot_at(bucket_, slot_);
        }

        Iter &
        operator++()
        {
            ++slot_;
            skip_free();
            return *this;
        }

        friend bool
        operator==(const Iter &a, const Iter &b)
        {
            return a.bucket_ == b.bucket_ && a.slot_ == b.slot_;
        }
        friend bool
        operator!=(const Iter &a, const Iter &b)
        {
            return !(a == b);
        }

      private:
        friend class FlatHashMap;

        /** Advance to the next occupied slot (or end). */
        void
        skip_free()
        {
            while (bucket_ < map_->nbuckets_) {
                const std::uint64_t tags = map_->tags_[bucket_];
                while (slot_ < kSlotsPerBucket) {
                    if (((tags >> (8 * slot_)) & 0x80u) == 0)
                        return;
                    ++slot_;
                }
                ++bucket_;
                slot_ = 0;
            }
            slot_ = 0;  // canonical end()
        }

        MapPtr map_ = nullptr;
        std::size_t bucket_ = 0;
        std::size_t slot_ = 0;
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatHashMap() = default;

    FlatHashMap(const FlatHashMap &other) { copy_from(other); }

    FlatHashMap(FlatHashMap &&other) noexcept { steal_from(other); }

    FlatHashMap &
    operator=(const FlatHashMap &other)
    {
        if (this != &other) {
            destroy();
            copy_from(other);
        }
        return *this;
    }

    FlatHashMap &
    operator=(FlatHashMap &&other) noexcept
    {
        if (this != &other) {
            destroy();
            steal_from(other);
        }
        return *this;
    }

    ~FlatHashMap() { destroy(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Total slots allocated (power of two, 0 before first insert). */
    std::size_t capacity() const { return nbuckets_ * kSlotsPerBucket; }

    /** Allocation footprint in bytes (metadata accounting). */
    std::uint64_t
    storage_bytes() const
    {
        return nbuckets_ == 0
                   ? 0
                   : tag_bytes(nbuckets_) + slot_bytes(nbuckets_);
    }

    iterator
    begin()
    {
        iterator it(this, 0, 0);
        it.skip_free();
        return it;
    }
    const_iterator
    begin() const
    {
        const_iterator it(this, 0, 0);
        it.skip_free();
        return it;
    }
    iterator end() { return iterator(this, nbuckets_, 0); }
    const_iterator end() const
    {
        return const_iterator(this, nbuckets_, 0);
    }

    iterator
    find(const K &key)
    {
        const auto [b, s] = locate(key);
        return b == npos ? end() : iterator(this, b, s);
    }
    const_iterator
    find(const K &key) const
    {
        const auto [b, s] = locate(key);
        return b == npos ? end() : const_iterator(this, b, s);
    }

    std::size_t count(const K &key) const
    {
        return locate(key).first == npos ? 0 : 1;
    }
    bool contains(const K &key) const
    {
        return locate(key).first != npos;
    }

    /**
     * Warm the lines a lookup of `key` will touch (tag word and home
     * bucket's slots). Callers that know their probe stream a few
     * steps ahead — e.g. an encoder walking an access trace — can
     * pipeline lookups this way and hide the table's memory latency
     * entirely. Only open addressing admits this: a chained table
     * cannot name its node line until the bucket head is loaded.
     *
     * Returns the key's hash; handing it back to `find_hashed()` /
     * `contains_hashed()` keeps the rehash (and a now-redundant
     * internal prefetch) off the lookup's critical path. The hash
     * does not depend on the table size, so it stays valid across
     * any rehash between the prefetch and the lookup.
     */
    std::uint64_t
    prefetch(const K &key) const
    {
        const std::uint64_t h = hash_(key);
        if (nbuckets_ != 0) {
            const std::size_t bi = h & (nbuckets_ - 1);
            prefetch_ro(tags_ + bi);
            prefetch_ro(slots_ + bi * kSlotsPerBucket);
        }
        return h;
    }

    /**
     * Like prefetch(), but warms only the tag word — the one line an
     * absent key's probe touches. The right call when most probes are
     * expected to miss (e.g. the infrequent-line filter, where the
     * frequent majority of lines is absent by design): it halves the
     * prefetch traffic of the pipeline.
     */
    std::uint64_t
    prefetch_tag(const K &key) const
    {
        const std::uint64_t h = hash_(key);
        if (nbuckets_ != 0)
            prefetch_ro(tags_ + (h & (nbuckets_ - 1)));
        return h;
    }

    /** find() with the hash returned by a prior prefetch of `key`. */
    iterator
    find_hashed(const K &key, std::uint64_t h)
    {
        const auto [b, s] = locate_hashed(key, h);
        return b == npos ? end() : iterator(this, b, s);
    }
    const_iterator
    find_hashed(const K &key, std::uint64_t h) const
    {
        const auto [b, s] = locate_hashed(key, h);
        return b == npos ? end() : const_iterator(this, b, s);
    }

    /** contains() with the hash returned by a prior prefetch. */
    bool
    contains_hashed(const K &key, std::uint64_t h) const
    {
        return locate_hashed(key, h).first != npos;
    }

    /**
     * Insert `key -> V(args...)` if absent. Returns the slot and
     * whether an insertion happened (the mapped value is untouched on
     * a hit), mirroring `std::unordered_map::emplace`.
     */
    template <typename KK, typename... Args>
    std::pair<iterator, bool>
    emplace(KK &&key, Args &&...args)
    {
        reserve_for(size_ + 1);
        K k(std::forward<KK>(key));
        const std::uint64_t h = hash_(k);
        const std::uint8_t tag = tag_of(h);
        const std::size_t mask = nbuckets_ - 1;
        std::size_t bi = h & mask;
        std::size_t free_b = npos;
        std::size_t free_s = 0;
        prefetch_ro(slots_ + bi * kSlotsPerBucket);
        for (;;) {
            const std::uint64_t tw = tags_[bi];
            std::uint64_t m = flat_detail::match_bytes(tw, tag);
            while (m != 0) {
                const std::size_t s =
                    static_cast<std::size_t>(ctz(m)) >> 3;
                if (slot_at(bi, s)->first == k)
                    return {iterator(this, bi, s), false};
                m &= m - 1;
            }
            if (free_b == npos) {
                const std::uint64_t f = flat_detail::free_bytes(tw);
                if (f != 0) {
                    free_b = bi;
                    free_s = static_cast<std::size_t>(ctz(f)) >> 3;
                }
            }
            if (flat_detail::match_bytes(
                    tw, flat_detail::kEmptyTag) != 0)
                break;  // a true empty: the key is absent
            bi = (bi + 1) & mask;
        }
        if (tag_at(free_b, free_s) == flat_detail::kTombTag)
            --tombs_;
        new (slot_at(free_b, free_s))
            Slot{std::move(k), V(std::forward<Args>(args)...)};
        set_tag(free_b, free_s, tag);
        ++size_;
        return {iterator(this, free_b, free_s), true};
    }

    /** Mapped value for `key`, default-constructed when absent. */
    V &
    operator[](const K &key)
    {
        return emplace(key).first->second;
    }

    /** Erase `key` if present; returns the number of erased entries. */
    std::size_t
    erase(const K &key)
    {
        const auto [b, s] = locate(key);
        if (b == npos)
            return 0;
        slot_at(b, s)->~Slot();
        --size_;
        // Keep a tombstone only when the bucket has no true empty:
        // probes stop at the first empty-containing bucket, so an
        // already-breathing bucket can take the empty directly.
        if (flat_detail::match_bytes(tags_[b],
                                     flat_detail::kEmptyTag) != 0) {
            set_tag(b, s, flat_detail::kEmptyTag);
        } else {
            set_tag(b, s, flat_detail::kTombTag);
            ++tombs_;
        }
        return 1;
    }

    /** Remove every entry; keeps the current allocation. */
    void
    clear()
    {
        for (std::size_t b = 0; b < nbuckets_; ++b) {
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s)
                if (tag_at(b, s) < flat_detail::kEmptyTag)
                    slot_at(b, s)->~Slot();
            tags_[b] = flat_detail::kEmptyWord;
        }
        size_ = 0;
        tombs_ = 0;
    }

    /** Pre-size so `n` entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        if (n > size_)
            reserve_for(n);
    }

  private:
    static constexpr std::size_t npos =
        static_cast<std::size_t>(-1);

    static std::uint8_t tag_of(std::uint64_t h)
    {
        return static_cast<std::uint8_t>(h >> 57);  // 7 bits
    }

    static int
    ctz(std::uint64_t x)
    {
        return __builtin_ctzll(x);
    }

    /** Read-prefetch the cache line holding `p` (no-op fallback). */
    static void
    prefetch_ro(const void *p)
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
        (void)p;
#endif
    }

    std::uint8_t tag_at(std::size_t b, std::size_t s) const
    {
        return static_cast<std::uint8_t>(tags_[b] >> (8 * s));
    }

    void
    set_tag(std::size_t b, std::size_t s, std::uint8_t tag)
    {
        const int sh = static_cast<int>(8 * s);
        tags_[b] = (tags_[b] & ~(0xffull << sh)) |
                   (static_cast<std::uint64_t>(tag) << sh);
    }

    Slot *slot_at(std::size_t b, std::size_t s)
    {
        return slots_ + b * kSlotsPerBucket + s;
    }
    const Slot *slot_at(std::size_t b, std::size_t s) const
    {
        return slots_ + b * kSlotsPerBucket + s;
    }

    /** (bucket, slot) of `key`, or (npos, 0) when absent. */
    std::pair<std::size_t, std::size_t>
    locate(const K &key) const
    {
        if (nbuckets_ == 0)
            return {npos, 0};
        const std::uint64_t h = hash_(key);
        // Overlap the slot fetch with the tag probe: on a hit both
        // lines are needed, and issuing the slot line first turns the
        // dependent tag-then-slot chain into one memory round trip
        // (std::unordered_map serializes its bucket and node loads).
        prefetch_ro(slots_ + (h & (nbuckets_ - 1)) * kSlotsPerBucket);
        return locate_hashed(key, h);
    }

    /**
     * locate() with the hash precomputed. No internal prefetch: the
     * only callers are the `*_hashed` lookups, whose contract is that
     * `prefetch()`/`prefetch_tag()` already warmed the home bucket.
     */
    std::pair<std::size_t, std::size_t>
    locate_hashed(const K &key, std::uint64_t h) const
    {
        if (nbuckets_ == 0)
            return {npos, 0};
        const std::uint8_t tag = tag_of(h);
        const std::size_t mask = nbuckets_ - 1;
        std::size_t bi = h & mask;
        for (;;) {
            const std::uint64_t tw = tags_[bi];
            std::uint64_t m = flat_detail::match_bytes(tw, tag);
            while (m != 0) {
                const std::size_t s =
                    static_cast<std::size_t>(ctz(m)) >> 3;
                if (slot_at(bi, s)->first == key)
                    return {bi, s};
                m &= m - 1;
            }
            if (flat_detail::match_bytes(
                    tw, flat_detail::kEmptyTag) != 0)
                return {npos, 0};
            bi = (bi + 1) & mask;
        }
    }

    /** Arrays are cache-line aligned so buckets never straddle. */
    static constexpr std::size_t
    block_align()
    {
        return alignof(Slot) > 64 ? alignof(Slot) : 64;
    }

    static constexpr std::size_t
    tag_bytes(std::size_t n)
    {
        return n * sizeof(std::uint64_t);
    }

    static constexpr std::size_t
    slot_bytes(std::size_t n)
    {
        return n * kSlotsPerBucket * sizeof(Slot);
    }

    /**
     * Allocate tag + slot arrays for `n` buckets (tags all empty).
     * The arrays are separate allocations on purpose: the tag array
     * is 1/16th the slot footprint (8-byte pairs), so given its own
     * compact page range it stays TLB- and cache-resident, and a
     * probe pays at most one cold page regardless of how large the
     * slot array grows.
     */
    void
    alloc_arrays(std::size_t n)
    {
        tags_ = static_cast<std::uint64_t *>(::operator new(
            tag_bytes(n), std::align_val_t(block_align())));
        for (std::size_t i = 0; i < n; ++i)
            tags_[i] = flat_detail::kEmptyWord;
        slots_ = static_cast<Slot *>(::operator new(
            slot_bytes(n), std::align_val_t(block_align())));
        advise_huge_pages(tags_, tag_bytes(n));
        advise_huge_pages(slots_, slot_bytes(n));
        nbuckets_ = n;
    }

    static void
    free_arrays(std::uint64_t *tags, Slot *slots, std::size_t n)
    {
        ::operator delete(tags, tag_bytes(n),
                          std::align_val_t(block_align()));
        ::operator delete(slots, slot_bytes(n),
                          std::align_val_t(block_align()));
    }

    /**
     * Grow/rehash so that `needed` live entries plus the current
     * tombstones stay under 7/8 occupancy. Rehashing drops every
     * tombstone, so churny erase/insert workloads reclaim space
     * instead of ratcheting the capacity up.
     */
    void
    reserve_for(std::size_t needed)
    {
        if (nbuckets_ != 0 &&
            (size_ < needed ? (tombs_ + needed) : (tombs_ + size_)) *
                    8 <=
                capacity() * 7 &&
            needed <= capacity() * 3 / 4)
            return;
        std::size_t target = 2;  // 16 slots minimum
        while (needed * 4 > target * kSlotsPerBucket * 3)
            target <<= 1;
        rehash(target);
    }

    void
    rehash(std::size_t new_buckets)
    {
        std::uint64_t *old_tags = tags_;
        Slot *old_slots = slots_;
        const std::size_t old_n = nbuckets_;
        alloc_arrays(new_buckets);
        tombs_ = 0;
        const std::size_t mask = nbuckets_ - 1;
        // Software-pipelined re-placement: the old table streams
        // sequentially, but the stores scatter hash-ordered across
        // the new arrays — so hash each entry a ring ahead of placing
        // it and prefetch its target lines, keeping several scattered
        // stores in flight instead of stalling on each one.
        constexpr std::size_t kRing = 8;
        Slot *ring_slot[kRing];
        std::uint64_t ring_hash[kRing];
        std::size_t head = 0;  // next ring index to place
        std::size_t fill = 0;  // occupied ring entries
        const auto place = [&](Slot *slot, std::uint64_t h) {
            std::size_t bi = h & mask;
            for (;;) {
                const std::uint64_t f =
                    flat_detail::free_bytes(tags_[bi]);
                if (f != 0) {
                    const std::size_t ns =
                        static_cast<std::size_t>(ctz(f)) >> 3;
                    new (slot_at(bi, ns)) Slot{std::move(*slot)};
                    set_tag(bi, ns, tag_of(h));
                    break;
                }
                bi = (bi + 1) & mask;
            }
            slot->~Slot();
        };
        for (std::size_t b = 0; b < old_n; ++b) {
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
                const std::uint8_t t = static_cast<std::uint8_t>(
                    old_tags[b] >> (8 * s));
                if (t >= flat_detail::kEmptyTag)
                    continue;
                Slot *slot = old_slots + b * kSlotsPerBucket + s;
                const std::uint64_t h = hash_(slot->first);
                const std::size_t bi = h & mask;
                prefetch_ro(tags_ + bi);
                prefetch_ro(slots_ + bi * kSlotsPerBucket);
                if (fill == kRing) {
                    place(ring_slot[head], ring_hash[head]);
                    head = (head + 1) % kRing;
                    --fill;
                }
                const std::size_t tail = (head + fill) % kRing;
                ring_slot[tail] = slot;
                ring_hash[tail] = h;
                ++fill;
            }
        }
        for (; fill != 0; --fill) {
            place(ring_slot[head], ring_hash[head]);
            head = (head + 1) % kRing;
        }
        if (old_tags != nullptr)
            free_arrays(old_tags, old_slots, old_n);
    }

    void
    copy_from(const FlatHashMap &other)
    {
        hash_ = other.hash_;
        if (other.nbuckets_ == 0)
            return;
        alloc_arrays(other.nbuckets_);
        size_ = other.size_;
        tombs_ = other.tombs_;
        for (std::size_t b = 0; b < nbuckets_; ++b) {
            tags_[b] = other.tags_[b];
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s)
                if (tag_at(b, s) < flat_detail::kEmptyTag)
                    new (slot_at(b, s)) Slot{*other.slot_at(b, s)};
        }
    }

    void
    steal_from(FlatHashMap &other) noexcept
    {
        tags_ = other.tags_;
        slots_ = other.slots_;
        nbuckets_ = other.nbuckets_;
        size_ = other.size_;
        tombs_ = other.tombs_;
        hash_ = std::move(other.hash_);
        other.tags_ = nullptr;
        other.slots_ = nullptr;
        other.nbuckets_ = 0;
        other.size_ = 0;
        other.tombs_ = 0;
    }

    void
    destroy()
    {
        if (tags_ == nullptr)
            return;
        for (std::size_t b = 0; b < nbuckets_; ++b)
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s)
                if (tag_at(b, s) < flat_detail::kEmptyTag)
                    slot_at(b, s)->~Slot();
        free_arrays(tags_, slots_, nbuckets_);
        tags_ = nullptr;
        slots_ = nullptr;
        nbuckets_ = 0;
        size_ = 0;
        tombs_ = 0;
    }

    std::uint64_t *tags_ = nullptr;  ///< one tag word per bucket
    Slot *slots_ = nullptr;          ///< 8 raw slots per bucket
    std::size_t nbuckets_ = 0;  ///< power of two, or 0 before use
    std::size_t size_ = 0;      ///< live entries
    std::size_t tombs_ = 0;     ///< tombstoned slots
    [[no_unique_address]] Hash hash_;
};

/**
 * Open-addressing hash set over the same bucket machinery; used where
 * only membership matters (e.g. the vocabulary's infrequent-line
 * filter). Supports `insert`, `contains`/`count`, `erase`, iteration
 * over keys, `reserve` and `storage_bytes`.
 */
template <typename K, typename Hash = FlatHash<K>>
class FlatHashSet
{
    using Map = FlatHashMap<K, flat_detail::Empty, Hash>;

  public:
    class const_iterator
    {
      public:
        const_iterator() = default;
        explicit const_iterator(typename Map::const_iterator it)
            : it_(it)
        {
        }
        const K &operator*() const { return it_->first; }
        const K *operator->() const { return &it_->first; }
        const_iterator &
        operator++()
        {
            ++it_;
            return *this;
        }
        friend bool
        operator==(const const_iterator &a, const const_iterator &b)
        {
            return a.it_ == b.it_;
        }
        friend bool
        operator!=(const const_iterator &a, const const_iterator &b)
        {
            return !(a == b);
        }

      private:
        typename Map::const_iterator it_;
    };
    using iterator = const_iterator;

    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    std::size_t capacity() const { return map_.capacity(); }
    std::uint64_t storage_bytes() const
    {
        return map_.storage_bytes();
    }

    const_iterator begin() const
    {
        return const_iterator(map_.begin());
    }
    const_iterator end() const { return const_iterator(map_.end()); }

    /** Insert `key`; returns true iff it was not already present. */
    template <typename KK>
    bool
    insert(KK &&key)
    {
        return map_.emplace(std::forward<KK>(key)).second;
    }

    bool contains(const K &key) const { return map_.contains(key); }
    std::size_t count(const K &key) const { return map_.count(key); }
    /** Warm the lines `contains(key)` will touch (see FlatHashMap). */
    std::uint64_t
    prefetch(const K &key) const
    {
        return map_.prefetch(key);
    }
    /** Warm only the tag word — for mostly-absent probe streams. */
    std::uint64_t
    prefetch_tag(const K &key) const
    {
        return map_.prefetch_tag(key);
    }
    /** contains() with the hash returned by a prior prefetch. */
    bool
    contains_hashed(const K &key, std::uint64_t h) const
    {
        return map_.contains_hashed(key, h);
    }
    std::size_t erase(const K &key) { return map_.erase(key); }
    void clear() { map_.clear(); }
    void reserve(std::size_t n) { map_.reserve(n); }

  private:
    Map map_;
};

}  // namespace voyager
