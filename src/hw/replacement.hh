/**
 * @file
 * Replacement policies for set-associative hardware structures.
 *
 * One policy object serves a whole structure; state is kept per
 * (set, way). The structure asks for a victim only when every way in
 * the set is valid -- invalid ways are always filled first by the
 * caller, lowest way first. LRU and FIFO evict the first way with the
 * smallest stamp; Random and tree PLRU keep their own state.
 */

#ifndef SASOS_HW_REPLACEMENT_HH
#define SASOS_HW_REPLACEMENT_HH

#include <memory>
#include <string>

#include "sim/random.hh"
#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::hw
{

/**
 * Associativity up to which a set is searched way by way. Wider
 * structures (the 128-way TLB and PLB, the 512-way translation TLB)
 * find a tag through AssocCache's tag index and an LRU/FIFO victim
 * through a per-set recency list, both O(1); the victims are the same.
 */
inline constexpr std::size_t kScanWays = 16;

/** Selectable replacement policies. */
enum class PolicyKind
{
    Lru,
    Fifo,
    Random,
    TreePlru,
};

const char *toString(PolicyKind kind);

/** Parse "lru" / "fifo" / "random" / "plru" (fatal on other input). */
PolicyKind parsePolicyKind(const std::string &name);

/** Per-structure replacement state. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Record a hit on (set, way). */
    virtual void touch(std::size_t set, std::size_t way) = 0;

    /**
     * Whether touch() has any effect. FIFO and Random ignore hits, so
     * the structure's lookup path can skip the virtual call entirely;
     * recency-based policies return true.
     */
    virtual bool needsTouch() const { return true; }

    /** Record a fill of (set, way). */
    virtual void fill(std::size_t set, std::size_t way) = 0;

    /** Choose the way to evict in a full set. */
    virtual std::size_t victim(std::size_t set) = 0;

    /** Forget all history (e.g. after a full purge). */
    virtual void reset() = 0;

    /** @name Snapshot hooks
     * Replacement history decides every future victim, so it is part
     * of the deterministic state; load() is called on a policy built
     * with the same (kind, sets, ways, seed) and fails cleanly on a
     * shape mismatch. */
    /// @{
    virtual void save(snap::SnapWriter &w) const = 0;
    virtual void load(snap::SnapReader &r) = 0;
    /// @}
};

/**
 * Build a policy instance.
 * @param seed only used by PolicyKind::Random.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(PolicyKind kind,
                                              std::size_t sets,
                                              std::size_t ways,
                                              u64 seed = 1);

} // namespace sasos::hw

#endif // SASOS_HW_REPLACEMENT_HH
