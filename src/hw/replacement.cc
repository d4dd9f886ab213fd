#include "hw/replacement.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::hw
{

namespace
{

/**
 * The ways of every set in ascending (stamp, way) order: one circular
 * doubly linked list per set, threaded through flat arrays. Node
 * `ways` of each set is the list's sentinel, so the head (the way with
 * the smallest stamp, lowest index first on a tie) is next[sentinel].
 */
class RecencyOrder
{
  public:
    RecencyOrder(std::size_t sets, std::size_t ways)
        : ways_(ways), next_(sets * (ways + 1)), prev_(sets * (ways + 1))
    {
        SASOS_ASSERT(ways < std::numeric_limits<u32>::max(),
                     "too many ways for a recency list");
        reset();
    }

    /** Every set back to way order (all stamps equal). */
    void
    reset()
    {
        for (std::size_t base = 0; base < next_.size(); base += ways_ + 1) {
            for (std::size_t node = 1; node <= ways_; ++node) {
                next_[base + node - 1] = static_cast<u32>(node);
                prev_[base + node] = static_cast<u32>(node - 1);
            }
            next_[base + ways_] = 0;
            prev_[base] = static_cast<u32>(ways_);
        }
    }

    std::size_t
    front(std::size_t set) const
    {
        return next_[set * (ways_ + 1) + ways_];
    }

    /** `way` just took the largest stamp of the structure. */
    void
    moveToBack(std::size_t set, std::size_t way)
    {
        const std::size_t base = set * (ways_ + 1);
        if (prev_[base + ways_] == way)
            return;
        next_[base + prev_[base + way]] = next_[base + way];
        prev_[base + next_[base + way]] = prev_[base + way];
        append(base, way);
    }

    /** Relink every set from its stamps (after a snapshot load). */
    void
    rebuild(const std::vector<u64> &stamps)
    {
        std::vector<u32> order(ways_);
        for (std::size_t set = 0; set * ways_ < stamps.size(); ++set) {
            const u64 *stamp = &stamps[set * ways_];
            for (std::size_t way = 0; way < ways_; ++way)
                order[way] = static_cast<u32>(way);
            std::stable_sort(order.begin(), order.end(),
                             [stamp](u32 a, u32 b) {
                                 return stamp[a] < stamp[b];
                             });
            const std::size_t base = set * (ways_ + 1);
            next_[base + ways_] = prev_[base + ways_] =
                static_cast<u32>(ways_);
            for (u32 way : order)
                append(base, way);
        }
    }

  private:
    void
    append(std::size_t base, std::size_t way)
    {
        const u32 tail = prev_[base + ways_];
        next_[base + tail] = static_cast<u32>(way);
        prev_[base + way] = tail;
        next_[base + way] = static_cast<u32>(ways_);
        prev_[base + ways_] = static_cast<u32>(way);
    }

    std::size_t ways_;
    std::vector<u32> next_;
    std::vector<u32> prev_;
};

/**
 * Shared machinery of LRU and FIFO: a per-way stamp from a global
 * clock, and the victim is the first way with the smallest stamp.
 * The stamps are the serialized state. Above kScanWays the victim
 * comes from a RecencyOrder kept beside them instead of a scan.
 */
class StampPolicy : public ReplacementPolicy
{
  public:
    StampPolicy(std::size_t sets, std::size_t ways)
        : ways_(ways), stamps_(sets * ways, 0),
          order_(ways > kScanWays ? sets : 0, ways)
    {
    }

    std::size_t
    victim(std::size_t set) override
    {
        if (ways_ > kScanWays)
            return order_.front(set);
        const u64 *base = &stamps_[set * ways_];
        return static_cast<std::size_t>(
            std::min_element(base, base + ways_) - base);
    }

    void
    reset() override
    {
        std::fill(stamps_.begin(), stamps_.end(), 0);
        clock_ = 0;
        order_.reset();
    }

    void
    save(snap::SnapWriter &w) const override
    {
        w.putTag("stamps");
        w.put64(stamps_.size());
        for (u64 stamp : stamps_)
            w.put64(stamp);
        w.put64(clock_);
    }

    /**
     * A stamp ahead of the clock is rejected: the next stamp handed
     * out would not be the largest, so the recency order would no
     * longer match the smallest-stamp rule.
     */
    void
    load(snap::SnapReader &r) override
    {
        r.expectTag("stamps");
        const u64 count = r.getCount(8);
        if (count != stamps_.size())
            SASOS_FATAL("corrupt snapshot: replacement state carries ",
                        count, " stamps, this geometry has ",
                        stamps_.size());
        for (auto &stamp : stamps_)
            stamp = r.get64();
        clock_ = r.get64();
        for (u64 stamp : stamps_) {
            if (stamp > clock_)
                SASOS_FATAL("corrupt snapshot: replacement stamp ", stamp,
                            " is ahead of its clock ", clock_);
        }
        if (ways_ > kScanWays)
            order_.rebuild(stamps_);
    }

  protected:
    void
    stamp(std::size_t set, std::size_t way)
    {
        stamps_[set * ways_ + way] = ++clock_;
        if (ways_ > kScanWays)
            order_.moveToBack(set, way);
    }

  private:
    std::size_t ways_;
    std::vector<u64> stamps_;
    u64 clock_ = 0;
    RecencyOrder order_;
};

/** True LRU: hits and fills both refresh the stamp. */
class LruPolicy : public StampPolicy
{
  public:
    using StampPolicy::StampPolicy;

    void touch(std::size_t set, std::size_t way) override { stamp(set, way); }
    void fill(std::size_t set, std::size_t way) override { stamp(set, way); }
};

/** FIFO: evict the oldest fill; hits do not refresh. */
class FifoPolicy : public StampPolicy
{
  public:
    using StampPolicy::StampPolicy;

    void touch(std::size_t, std::size_t) override {}
    bool needsTouch() const override { return false; }
    void fill(std::size_t set, std::size_t way) override { stamp(set, way); }
};

/** Uniformly random victim (deterministic via seeded Rng). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::size_t ways, u64 seed) : ways_(ways), rng_(seed) {}

    void touch(std::size_t, std::size_t) override {}
    bool needsTouch() const override { return false; }
    void fill(std::size_t, std::size_t) override {}

    std::size_t
    victim(std::size_t) override
    {
        return static_cast<std::size_t>(rng_.nextBelow(ways_));
    }

    void reset() override {}

    void save(snap::SnapWriter &w) const override { rng_.save(w); }
    void load(snap::SnapReader &r) override { rng_.load(r); }

  private:
    std::size_t ways_;
    Rng rng_;
};

/**
 * Tree pseudo-LRU: one bit per internal node of a binary tree over
 * the ways. Requires a power-of-two way count; falls back to LRU for
 * other geometries (callers get told via makePolicy's choice).
 */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(std::size_t sets, std::size_t ways)
        : ways_(ways), bits_(sets * (ways - 1), 0)
    {
    }

    void
    touch(std::size_t set, std::size_t way) override
    {
        // Walk from root to the leaf, pointing each node away from
        // the touched way.
        char *tree = treeFor(set);
        std::size_t node = 0;
        std::size_t lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const bool right = way >= mid;
            tree[node] = !right; // point away from the used half
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
    }

    void
    fill(std::size_t set, std::size_t way) override
    {
        touch(set, way);
    }

    std::size_t
    victim(std::size_t set) override
    {
        char *tree = treeFor(set);
        std::size_t node = 0;
        std::size_t lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const bool right = tree[node];
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    void
    reset() override
    {
        std::fill(bits_.begin(), bits_.end(), 0);
    }

    void save(snap::SnapWriter &w) const override
    {
        w.putTag("plru");
        w.put64(bits_.size());
        for (char bit : bits_)
            w.putBool(bit != 0);
    }

    void load(snap::SnapReader &r) override
    {
        r.expectTag("plru");
        const u64 count = r.getCount();
        if (count != bits_.size())
            SASOS_FATAL("corrupt snapshot: plru state carries ", count,
                        " bits, this geometry has ", bits_.size());
        for (auto &bit : bits_)
            bit = r.getBool() ? 1 : 0;
    }

  private:
    char *treeFor(std::size_t set) { return &bits_[set * (ways_ - 1)]; }

    std::size_t ways_;
    std::vector<char> bits_;
};

} // namespace

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "lru";
      case PolicyKind::Fifo:
        return "fifo";
      case PolicyKind::Random:
        return "random";
      case PolicyKind::TreePlru:
        return "plru";
    }
    return "?";
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "lru")
        return PolicyKind::Lru;
    if (name == "fifo")
        return PolicyKind::Fifo;
    if (name == "random")
        return PolicyKind::Random;
    if (name == "plru")
        return PolicyKind::TreePlru;
    SASOS_FATAL("unknown replacement policy '", name, "'");
}

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::size_t sets, std::size_t ways, u64 seed)
{
    SASOS_ASSERT(sets > 0 && ways > 0, "degenerate geometry");
    switch (kind) {
      case PolicyKind::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
      case PolicyKind::Fifo:
        return std::make_unique<FifoPolicy>(sets, ways);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(ways, seed);
      case PolicyKind::TreePlru:
        if ((ways & (ways - 1)) != 0 || ways == 1)
            return std::make_unique<LruPolicy>(sets, ways);
        return std::make_unique<TreePlruPolicy>(sets, ways);
    }
    SASOS_PANIC("unreachable");
}

} // namespace sasos::hw
