/**
 * @file
 * A generic set-associative tag store.
 *
 * This is the common machinery behind every lookup structure in the
 * simulator: the data cache tag array, the TLB, the PLB and the
 * page-group cache. Callers map their key to (set index, tag); the
 * store handles validity, replacement and scans.
 *
 * Storage is structure-of-arrays: the valid bits, tags and payloads
 * live in three parallel vectors, so the probe loop -- the simulator's
 * single hottest scan -- walks a dense byte array and a dense tag
 * array instead of striding over padded (valid, tag, payload) records.
 * The external API (lookup/probe/insert/purge scans) and the snapshot
 * byte format are unchanged from the AoS layout.
 *
 * Sets wider than kScanWays (the 128-way TLB and PLB, the 512-way
 * translation TLB) are not scanned: a per-cache open-addressing index
 * maps (set, tag) to a slot, and the LRU/FIFO policies keep a per-set
 * recency list (replacement.cc). A probe, insert or victim choice
 * costs a few hash probes there instead of a pass over every way, and
 * every result, victim and snapshot byte is the same as the scan's.
 *
 * Purge operations report how many entries were *scanned* as well as
 * how many were invalidated, because the paper's cost arguments
 * distinguish a full inspect-every-entry pass (PLB detach) from an
 * indexed invalidate (TLB purge of one page).
 */

#ifndef SASOS_HW_ASSOC_CACHE_HH
#define SASOS_HW_ASSOC_CACHE_HH

#include <bit>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "hw/replacement.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::hw
{

/** Result of a scan-style purge. */
struct PurgeResult
{
    u64 scanned = 0;
    u64 invalidated = 0;
};

/**
 * Location of a lookup hit. Callers that coalesce consecutive
 * references to the same entry remember the location and replay the
 * replacement touch through touch() without re-scanning the set.
 */
struct AssocLoc
{
    std::size_t set = 0;
    std::size_t way = 0;
};

/**
 * Set-associative storage of (Tag -> Payload).
 *
 * @tparam Tag      equality-comparable lookup key (within a set):
 *                  an integer, or a struct with a `u64 hash() const`.
 * @tparam Payload  per-entry data.
 */
template <typename Tag, typename Payload>
class AssocCache
{
  public:
    /** An evicted valid entry, reported to the caller on insert. */
    struct Victim
    {
        Tag tag{};
        Payload payload{};
    };

    AssocCache(std::size_t sets, std::size_t ways, PolicyKind policy,
               u64 seed = 1)
        : sets_(sets), ways_(ways),
          valid_(sets * ways, 0),
          tags_(sets * ways),
          payloads_(sets * ways),
          setValid_(sets, 0),
          index_(ways > kScanWays ? indexSize(sets * ways) : 0, 0),
          indexMask_(index_.empty() ? 0 : index_.size() - 1),
          indexShift_(index_.empty()
                          ? 0
                          : 64 - std::countr_zero(index_.size())),
          policy_(makePolicy(policy, sets, ways, seed)),
          needsTouch_(policy_->needsTouch())
    {
        SASOS_ASSERT(sets > 0 && ways > 0, "degenerate cache geometry");
        // Index buckets carry a 32-bit slot and the top 32 bits of
        // the hash, which must cover the home bucket.
        SASOS_ASSERT(sets * ways <= (std::size_t{1} << 31),
                     "cache too large for its tag index");
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t capacity() const { return valid_.size(); }

    /** Valid entries currently stored. */
    std::size_t occupancy() const { return occupancy_; }

    /**
     * Find and touch (updates replacement state). Null on miss.
     * @param loc filled with the hit's (set, way) when non-null, so
     *            the caller can replay the touch on a coalesced
     *            re-reference.
     */
    Payload *
    lookup(std::size_t set, const Tag &tag, AssocLoc *loc = nullptr)
    {
        const std::size_t slot = findSlot(set, tag);
        if (slot == kNoWay)
            return nullptr;
        const std::size_t way = slot - set * ways_;
        if (needsTouch_)
            policy_->touch(set, way);
        if (loc != nullptr)
            *loc = {set, way};
        return &payloads_[slot];
    }

    /** Find without touching replacement state. Null on miss. */
    Payload *
    probe(std::size_t set, const Tag &tag)
    {
        const std::size_t slot = findSlot(set, tag);
        return slot == kNoWay ? nullptr : &payloads_[slot];
    }

    const Payload *
    probe(std::size_t set, const Tag &tag) const
    {
        return const_cast<AssocCache *>(this)->probe(set, tag);
    }

    /**
     * Replay the replacement touch of a remembered hit, exactly as
     * lookup() would have performed it. The caller guarantees the
     * entry at `loc` is still the one it hit (nothing was inserted or
     * invalidated since).
     */
    void
    touch(const AssocLoc &loc)
    {
        if (needsTouch_)
            policy_->touch(loc.set, loc.way);
    }

    /**
     * Insert, evicting if the set is full.
     * Inserting a tag that is already present is a caller bug
     * (use lookup + modify payload instead) and panics.
     * @return the evicted valid entry, if any.
     */
    std::optional<Victim>
    insert(std::size_t set, const Tag &tag, Payload payload)
    {
        SASOS_ASSERT(findSlot(set, tag) == kNoWay,
                     "inserting duplicate tag");
        const std::size_t base = set * ways_;
        // Prefer an invalid way, lowest first; a full set has none.
        if (setValid_[set] < ways_) {
            const void *hole = std::memchr(&valid_[base], 0, ways_);
            const std::size_t slot =
                static_cast<std::size_t>(static_cast<const u8 *>(hole) -
                                         valid_.data());
            tags_[slot] = tag;
            payloads_[slot] = std::move(payload);
            markValid(set, slot);
            policy_->fill(set, slot - base);
            return std::nullopt;
        }
        const std::size_t way = policy_->victim(set);
        SASOS_ASSERT(way < ways_, "policy returned bad way");
        const std::size_t slot = base + way;
        unindex(set, slot);
        Victim victim{tags_[slot], std::move(payloads_[slot])};
        tags_[slot] = tag;
        payloads_[slot] = std::move(payload);
        reindex(set, slot);
        policy_->fill(set, way);
        return victim;
    }

    /** Invalidate one entry if present. @return true if it existed. */
    bool
    invalidate(std::size_t set, const Tag &tag)
    {
        const std::size_t slot = findSlot(set, tag);
        if (slot == kNoWay)
            return false;
        markInvalid(set, slot);
        return true;
    }

    /**
     * Scan every entry; invalidate those matching `pred(tag, payload)`.
     * Models the "inspect all the entries in the PLB" cost the paper
     * describes for segment detach.
     */
    template <typename Pred>
    PurgeResult
    invalidateIf(Pred pred)
    {
        PurgeResult result;
        // Hardware inspects every slot of the structure, valid or
        // not; the scan cost is the capacity, which is what the
        // paper's "inspecting all the entries" worst case charges.
        result.scanned = valid_.size();
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (!valid_[i])
                continue;
            if (pred(tags_[i], payloads_[i])) {
                markInvalid(i / ways_, i);
                ++result.invalidated;
            }
        }
        return result;
    }

    /**
     * Invalidate the n-th valid entry in scan order (n < occupancy).
     * This is the fault injector's handle for a spurious eviction: the
     * victim index comes from the campaign Rng, so which entry dies is
     * seeded, not host-dependent. Replacement state is left alone,
     * like the purge paths. @return the dropped entry, or nullopt if
     * n is out of range.
     */
    std::optional<Victim>
    invalidateNth(std::size_t n)
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (!valid_[i])
                continue;
            if (n-- == 0) {
                markInvalid(i / ways_, i);
                return Victim{tags_[i], payloads_[i]};
            }
        }
        return std::nullopt;
    }

    /** Flash-invalidate everything. @return entries dropped. */
    u64
    invalidateAll()
    {
        const u64 dropped = occupancy_;
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(setValid_.begin(), setValid_.end(), 0);
        std::fill(index_.begin(), index_.end(), 0);
        occupancy_ = 0;
        policy_->reset();
        return dropped;
    }

    /** Visit every valid entry: fn(tag, payload&). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i])
                fn(tags_[i], payloads_[i]);
        }
    }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i])
                fn(tags_[i], payloads_[i]);
        }
    }

    /** Visit every valid entry of one set: fn(tag, payload&). */
    template <typename Fn>
    void
    forEachInSet(std::size_t set, Fn fn)
    {
        const std::size_t base = set * ways_;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (valid_[base + way])
                fn(tags_[base + way], payloads_[base + way]);
        }
    }

    /**
     * @name Snapshot hooks
     *
     * Tags and payloads are structs with padding, so the owner
     * supplies field-by-field encoders/decoders:
     *
     *   save_tag(w, tag) / save_payload(w, payload)
     *   load_tag(r) -> Tag / load_payload(r) -> Payload
     *
     * Slots are walked in (set, way) order, so the image is byte
     * stable (and identical to the pre-SoA layout's image). load()
     * runs against a cache constructed with the same geometry and
     * validates it: the set/way shape must match, and a set may not
     * carry duplicate valid tags (insert() would treat that as a
     * caller bug and abort; for untrusted input it must be a clean
     * fatal instead). Occupancy is recomputed, and the replacement
     * policy restores its own history afterwards.
     */
    /// @{
    template <typename SaveTag, typename SavePayload>
    void
    save(snap::SnapWriter &w, SaveTag save_tag,
         SavePayload save_payload) const
    {
        w.putTag("assoc");
        w.put64(sets_);
        w.put64(ways_);
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            w.putBool(valid_[i] != 0);
            if (valid_[i]) {
                save_tag(w, tags_[i]);
                save_payload(w, payloads_[i]);
            }
        }
        policy_->save(w);
    }

    template <typename LoadTag, typename LoadPayload>
    void
    load(snap::SnapReader &r, LoadTag load_tag, LoadPayload load_payload)
    {
        r.expectTag("assoc");
        const u64 sets = r.get64();
        const u64 ways = r.get64();
        if (sets != sets_ || ways != ways_)
            SASOS_FATAL("corrupt snapshot: cache geometry ", sets, "x",
                        ways, " does not match this build's ", sets_,
                        "x", ways_);
        std::vector<u8> present(valid_.size());
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            present[i] = r.getBool() ? 1 : 0;
            tags_[i] = present[i] ? load_tag(r) : Tag{};
            payloads_[i] = present[i] ? load_payload(r) : Payload{};
        }
        // Revalidate slot by slot, so each tag is checked against the
        // ones before it in its set as the index is rebuilt.
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(setValid_.begin(), setValid_.end(), 0);
        std::fill(index_.begin(), index_.end(), 0);
        occupancy_ = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (!present[i])
                continue;
            const std::size_t set = i / ways_;
            if (findSlot(set, tags_[i]) != kNoWay)
                SASOS_FATAL("corrupt snapshot: duplicate tag "
                            "in cache set ",
                            set);
            markValid(set, i);
        }
        policy_->load(r);
    }
    /// @}

  private:
    static constexpr std::size_t kNoWay = static_cast<std::size_t>(-1);

    /**
     * Index buckets: a power of two at least twice the capacity, so
     * linear probing stays short even with every slot valid.
     */
    static std::size_t
    indexSize(std::size_t capacity)
    {
        std::size_t size = 2;
        while (size < 2 * capacity)
            size *= 2;
        return size;
    }

    /**
     * Hash of (set, tag): one multiply, read from the top (Fibonacci
     * hashing), so the top bits pick the home bucket.
     */
    static u64
    hashOf(std::size_t set, const Tag &tag)
    {
        u64 x;
        if constexpr (std::is_integral_v<Tag>)
            x = static_cast<u64>(tag);
        else
            x = tag.hash();
        return (x ^ (static_cast<u64>(set) << 40)) * 0x9e3779b97f4a7c15ULL;
    }

    /**
     * Slot of (set, tag), or kNoWay. Up to kScanWays ways this is the
     * dense valid/tag scan; above, a walk of the tag index. A bucket
     * holds (top 32 bits of the hash) << 32 | (slot + 1), 0 if empty,
     * so its home bucket is bucket >> indexShift_.
     */
    std::size_t
    findSlot(std::size_t set, const Tag &tag) const
    {
        SASOS_ASSERT(set < sets_, "set index ", set, " out of range");
        const std::size_t base = set * ways_;
        if (index_.empty()) {
            const u8 *valid = valid_.data() + base;
            const Tag *tags = tags_.data() + base;
            for (std::size_t way = 0; way < ways_; ++way) {
                if (valid[way] && tags[way] == tag)
                    return base + way;
            }
            return kNoWay;
        }
        const u64 hash = hashOf(set, tag);
        for (std::size_t b = hash >> indexShift_;;
             b = (b + 1) & indexMask_) {
            const u64 bucket = index_[b];
            if (bucket == 0)
                return kNoWay;
            const std::size_t slot = (bucket & 0xffffffffULL) - 1;
            if ((bucket >> 32) == (hash >> 32) && slot - base < ways_ &&
                tags_[slot] == tag)
                return slot;
        }
    }

    /** Add valid slot `slot` of `set` to the index. */
    void
    reindex(std::size_t set, std::size_t slot)
    {
        if (index_.empty())
            return;
        const u64 hash = hashOf(set, tags_[slot]);
        std::size_t b = hash >> indexShift_;
        while (index_[b] != 0)
            b = (b + 1) & indexMask_;
        index_[b] = (hash >> 32 << 32) | (slot + 1);
    }

    /**
     * Drop slot `slot` of `set` from the index. Backward-shift
     * deletion: later buckets of the probe run move up into the hole,
     * so the table never holds tombstones.
     */
    void
    unindex(std::size_t set, std::size_t slot)
    {
        if (index_.empty())
            return;
        std::size_t hole = hashOf(set, tags_[slot]) >> indexShift_;
        while ((index_[hole] & 0xffffffffULL) != slot + 1)
            hole = (hole + 1) & indexMask_;
        for (std::size_t b = (hole + 1) & indexMask_; index_[b] != 0;
             b = (b + 1) & indexMask_) {
            // An entry may fill the hole unless its home bucket lies
            // cyclically in (hole, b].
            const std::size_t home = index_[b] >> indexShift_;
            if (((b - home) & indexMask_) >= ((b - hole) & indexMask_)) {
                index_[hole] = index_[b];
                hole = b;
            }
        }
        index_[hole] = 0;
    }

    void
    markValid(std::size_t set, std::size_t slot)
    {
        valid_[slot] = 1;
        ++setValid_[set];
        ++occupancy_;
        reindex(set, slot);
    }

    void
    markInvalid(std::size_t set, std::size_t slot)
    {
        unindex(set, slot);
        valid_[slot] = 0;
        --setValid_[set];
        --occupancy_;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<u8> valid_;
    std::vector<Tag> tags_;
    std::vector<Payload> payloads_;
    /** Valid ways per set: a full set skips the invalid-way search. */
    std::vector<u32> setValid_;
    /** (set, tag) -> slot, open addressing; empty up to kScanWays. */
    std::vector<u64> index_;
    std::size_t indexMask_;
    int indexShift_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::size_t occupancy_ = 0;
    /** Cached policy_->needsTouch(): lookup skips the virtual touch
     * call entirely for FIFO/Random structures. */
    bool needsTouch_;
};

} // namespace sasos::hw

#endif // SASOS_HW_ASSOC_CACHE_HH
