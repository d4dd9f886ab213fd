/**
 * @file
 * Tests for replacement policies, the generic associative store and
 * the data cache model, including a randomized equivalence check of
 * the associative store against a reference model, a differential
 * soak of its tag index and recency lists against a linear-scan
 * model, and parameterized sweeps over cache organizations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "hw/assoc_cache.hh"
#include "hw/data_cache.hh"
#include "hw/replacement.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "snap/snapio.hh"

using namespace sasos;
using namespace sasos::hw;

TEST(ReplacementTest, ParseNames)
{
    EXPECT_EQ(parsePolicyKind("lru"), PolicyKind::Lru);
    EXPECT_EQ(parsePolicyKind("fifo"), PolicyKind::Fifo);
    EXPECT_EQ(parsePolicyKind("random"), PolicyKind::Random);
    EXPECT_EQ(parsePolicyKind("plru"), PolicyKind::TreePlru);
}

TEST(ReplacementTest, LruEvictsLeastRecentlyUsed)
{
    auto policy = makePolicy(PolicyKind::Lru, 1, 4);
    for (std::size_t way = 0; way < 4; ++way)
        policy->fill(0, way);
    policy->touch(0, 0); // 0 becomes MRU; 1 is now LRU
    EXPECT_EQ(policy->victim(0), 1u);
    policy->touch(0, 1);
    EXPECT_EQ(policy->victim(0), 2u);
}

TEST(ReplacementTest, FifoIgnoresTouches)
{
    auto policy = makePolicy(PolicyKind::Fifo, 1, 4);
    for (std::size_t way = 0; way < 4; ++way)
        policy->fill(0, way);
    policy->touch(0, 0);
    policy->touch(0, 0);
    EXPECT_EQ(policy->victim(0), 0u); // still the oldest fill
}

TEST(ReplacementTest, RandomIsDeterministicPerSeed)
{
    auto a = makePolicy(PolicyKind::Random, 1, 8, 42);
    auto b = makePolicy(PolicyKind::Random, 1, 8, 42);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a->victim(0), b->victim(0));
}

TEST(ReplacementTest, RandomVictimsInRange)
{
    auto policy = makePolicy(PolicyKind::Random, 1, 4, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(policy->victim(0), 4u);
}

TEST(ReplacementTest, TreePlruNeverEvictsMostRecent)
{
    auto policy = makePolicy(PolicyKind::TreePlru, 1, 8);
    for (std::size_t way = 0; way < 8; ++way)
        policy->fill(0, way);
    for (std::size_t way = 0; way < 8; ++way) {
        policy->touch(0, way);
        EXPECT_NE(policy->victim(0), way);
    }
}

TEST(ReplacementTest, PerSetIndependence)
{
    auto policy = makePolicy(PolicyKind::Lru, 2, 2);
    policy->fill(0, 0);
    policy->fill(0, 1);
    policy->fill(1, 1);
    policy->fill(1, 0);
    EXPECT_EQ(policy->victim(0), 0u);
    EXPECT_EQ(policy->victim(1), 1u);
}

TEST(AssocCacheTest, InsertLookupInvalidate)
{
    AssocCache<u64, int> cache(1, 4, PolicyKind::Lru);
    EXPECT_FALSE(cache.insert(0, 10, 100).has_value());
    int *payload = cache.lookup(0, 10);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, 100);
    EXPECT_TRUE(cache.invalidate(0, 10));
    EXPECT_EQ(cache.lookup(0, 10), nullptr);
    EXPECT_FALSE(cache.invalidate(0, 10));
}

TEST(AssocCacheTest, EvictionReportsVictim)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 10);
    cache.insert(0, 2, 20);
    cache.lookup(0, 1); // 2 is LRU
    auto victim = cache.insert(0, 3, 30);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 2u);
    EXPECT_EQ(victim->payload, 20);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(AssocCacheTest, InvalidWaysFilledFirst)
{
    AssocCache<u64, int> cache(1, 3, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2);
    cache.invalidate(0, 1);
    EXPECT_FALSE(cache.insert(0, 3, 3).has_value()); // reuses slot
    EXPECT_NE(cache.lookup(0, 2), nullptr);
}

TEST(AssocCacheTest, InvalidateIfScansEverything)
{
    AssocCache<u64, int> cache(2, 2, PolicyKind::Lru);
    cache.insert(0, 2, 1);
    cache.insert(0, 4, 2);
    cache.insert(1, 1, 3);
    cache.insert(1, 3, 4);
    const PurgeResult result = cache.invalidateIf(
        [](u64 tag, const int &) { return tag % 2 == 0; });
    EXPECT_EQ(result.scanned, 4u);
    EXPECT_EQ(result.invalidated, 2u);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(AssocCacheTest, InvalidateAllResets)
{
    AssocCache<u64, int> cache(1, 4, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2);
    EXPECT_EQ(cache.invalidateAll(), 2u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(AssocCacheTest, ProbeDoesNotTouchReplacement)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2); // LRU order: 1, 2
    cache.probe(0, 1);     // must NOT make 1 MRU
    auto victim = cache.insert(0, 3, 3);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 1u);
}

TEST(AssocCacheDeathTest, DuplicateInsertPanics)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    EXPECT_DEATH(cache.insert(0, 1, 2), "duplicate");
}

/**
 * Randomized equivalence: a fully associative LRU AssocCache must
 * behave exactly like a reference map + LRU list.
 */
TEST(AssocCacheTest, MatchesReferenceModelUnderRandomOps)
{
    constexpr std::size_t kWays = 8;
    AssocCache<u64, u64> cache(1, kWays, PolicyKind::Lru);
    std::map<u64, u64> ref;
    std::list<u64> lru; // front = LRU
    Rng rng(2024);

    auto ref_touch = [&](u64 tag) {
        lru.remove(tag);
        lru.push_back(tag);
    };

    for (int op = 0; op < 4000; ++op) {
        const u64 tag = rng.nextBelow(24);
        switch (rng.nextBelow(3)) {
          case 0: { // lookup
            u64 *got = cache.lookup(0, tag);
            const bool ref_has = ref.count(tag) != 0;
            ASSERT_EQ(got != nullptr, ref_has) << "op " << op;
            if (ref_has) {
                ASSERT_EQ(*got, ref[tag]);
                ref_touch(tag);
            }
            break;
          }
          case 1: { // insert (skip if present)
            if (ref.count(tag))
                break;
            const u64 value = rng.next();
            cache.insert(0, tag, value);
            if (ref.size() == kWays) {
                const u64 victim = lru.front();
                lru.pop_front();
                ref.erase(victim);
            }
            ref[tag] = value;
            ref_touch(tag);
            break;
          }
          default: { // invalidate
            const bool was = cache.invalidate(0, tag);
            ASSERT_EQ(was, ref.erase(tag) != 0);
            lru.remove(tag);
            break;
          }
        }
        ASSERT_EQ(cache.occupancy(), ref.size());
    }
}

// ---------------------------------------------------------------------
// Differential soak: the indexed store against a linear-scan model

namespace
{

/** A struct tag whose hash folds onto four values, so the tag index
 * runs long collision chains through insert and backward-shift
 * deletion. */
struct CollidingTag
{
    u64 value = 0;

    bool operator==(const CollidingTag &) const = default;
    u64 hash() const { return value & 3; }
};

u64 tagValue(u64 tag) { return tag; }
u64 tagValue(const CollidingTag &tag) { return tag.value; }

template <typename Tag> Tag makeTag(u64 value);
template <> u64 makeTag<u64>(u64 value) { return value; }
template <> CollidingTag makeTag<CollidingTag>(u64 value)
{
    return CollidingTag{value};
}

/**
 * What AssocCache computed before it had a tag index: every probe a
 * scan of the set, invalid ways filled lowest first, LRU/FIFO victims
 * the first minimum stamp. Random and tree PLRU come from the shared
 * policy classes. image() is the snapshot AssocCache::save writes.
 */
template <typename Tag>
struct ScanModel
{
    ScanModel(std::size_t sets_, std::size_t ways_, PolicyKind kind,
              u64 seed)
        : sets(sets_), ways(ways_), valid(sets_ * ways_, 0),
          tags(sets_ * ways_), payloads(sets_ * ways_, 0),
          stamps(sets_ * ways_, 0)
    {
        const bool plru_falls_back =
            kind == PolicyKind::TreePlru &&
            (ways == 1 || (ways & (ways - 1)) != 0);
        stampBased = kind == PolicyKind::Lru ||
                     kind == PolicyKind::Fifo || plru_falls_back;
        touchStamps = kind != PolicyKind::Fifo;
        if (!stampBased)
            policy = makePolicy(kind, sets, ways, seed);
    }

    std::size_t
    find(std::size_t set, const Tag &tag) const
    {
        for (std::size_t way = 0; way < ways; ++way) {
            if (valid[set * ways + way] && tags[set * ways + way] == tag)
                return set * ways + way;
        }
        return kNone;
    }

    void
    touch(std::size_t slot)
    {
        if (!stampBased)
            policy->touch(slot / ways, slot % ways);
        else if (touchStamps)
            stamps[slot] = ++clock;
    }

    void
    fill(std::size_t slot)
    {
        if (stampBased)
            stamps[slot] = ++clock;
        else
            policy->fill(slot / ways, slot % ways);
    }

    std::size_t
    victim(std::size_t set)
    {
        if (!stampBased)
            return set * ways + policy->victim(set);
        const u64 *base = &stamps[set * ways];
        return set * ways +
               static_cast<std::size_t>(
                   std::min_element(base, base + ways) - base);
    }

    std::optional<std::pair<Tag, u64>>
    insert(std::size_t set, const Tag &tag, u64 payload)
    {
        for (std::size_t way = 0; way < ways; ++way) {
            const std::size_t slot = set * ways + way;
            if (!valid[slot]) {
                valid[slot] = 1;
                ++live;
                tags[slot] = tag;
                payloads[slot] = payload;
                fill(slot);
                return std::nullopt;
            }
        }
        const std::size_t slot = victim(set);
        std::pair<Tag, u64> evicted{tags[slot], payloads[slot]};
        tags[slot] = tag;
        payloads[slot] = payload;
        fill(slot);
        return evicted;
    }

    void
    erase(std::size_t slot)
    {
        valid[slot] = 0;
        --live;
    }

    void
    reset()
    {
        std::fill(valid.begin(), valid.end(), 0);
        live = 0;
        if (stampBased) {
            std::fill(stamps.begin(), stamps.end(), 0);
            clock = 0;
        } else {
            policy->reset();
        }
    }

    std::vector<u8>
    image() const
    {
        snap::SnapWriter w;
        w.putTag("assoc");
        w.put64(sets);
        w.put64(ways);
        for (std::size_t i = 0; i < valid.size(); ++i) {
            w.putBool(valid[i] != 0);
            if (valid[i]) {
                w.put64(tagValue(tags[i]));
                w.put64(payloads[i]);
            }
        }
        if (stampBased) {
            w.putTag("stamps");
            w.put64(stamps.size());
            for (u64 stamp : stamps)
                w.put64(stamp);
            w.put64(clock);
        } else {
            policy->save(w);
        }
        return w.seal();
    }

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::size_t sets;
    std::size_t ways;
    std::vector<u8> valid;
    std::vector<Tag> tags;
    std::vector<u64> payloads;
    std::vector<u64> stamps;
    u64 clock = 0;
    std::size_t live = 0;
    bool stampBased = true;
    bool touchStamps = true;
    std::unique_ptr<ReplacementPolicy> policy;
};

template <typename Tag>
std::vector<u8>
cacheImage(const AssocCache<Tag, u64> &cache)
{
    snap::SnapWriter w;
    cache.save(
        w, [](snap::SnapWriter &out, const Tag &tag) {
            out.put64(tagValue(tag));
        },
        [](snap::SnapWriter &out, u64 payload) { out.put64(payload); });
    return w.seal();
}

template <typename Tag>
void
loadImage(AssocCache<Tag, u64> &cache, const std::vector<u8> &image)
{
    snap::SnapReader r(image);
    cache.load(
        r, [](snap::SnapReader &in) { return makeTag<Tag>(in.get64()); },
        [](snap::SnapReader &in) { return in.get64(); });
    r.finish();
}

/**
 * Random lookup/probe/touch/insert/invalidate/purge traffic with
 * save->load round trips, checked op by op against ScanModel: same
 * hits and payloads, same victims, same PurgeResult (a purge still
 * scans, and is charged, the whole capacity), same snapshot bytes.
 */
template <typename Tag>
void
soak(std::size_t sets, std::size_t ways, PolicyKind kind, u64 seed)
{
    SCOPED_TRACE(::testing::Message()
                 << sets << "x" << ways << " " << toString(kind));
    auto cache = std::make_unique<AssocCache<Tag, u64>>(sets, ways, kind,
                                                        seed);
    ScanModel<Tag> model(sets, ways, kind, seed);
    Rng rng(seed * 7919 + ways);
    // Half again as many tags as ways, and rare removals: sets stay
    // full, so most inserts of a new tag evict.
    const u64 tag_space = ways + ways / 2 + 3;
    const int ops = static_cast<int>(20000 + 40 * sets * ways);
    int round_trips = 0;
    int evictions = 0;

    for (int op = 0; op < ops; ++op) {
        const std::size_t set =
            static_cast<std::size_t>(rng.nextBelow(sets));
        const Tag tag = makeTag<Tag>(rng.nextBelow(tag_space));
        const std::size_t slot = model.find(set, tag);
        const u64 roll = rng.nextBelow(100000);
        if (roll < 40000) { // lookup, sometimes replaying the touch
            AssocLoc loc;
            const u64 *got = cache->lookup(set, tag, &loc);
            ASSERT_EQ(got != nullptr, slot != model.kNone) << "op " << op;
            if (got == nullptr)
                continue;
            ASSERT_EQ(*got, model.payloads[slot]) << "op " << op;
            ASSERT_EQ(loc.set * ways + loc.way, slot) << "op " << op;
            model.touch(slot);
            if (rng.nextBelow(4) == 0) {
                cache->touch(loc);
                model.touch(slot);
            }
        } else if (roll < 50000) { // probe: no replacement update
            const u64 *got = std::as_const(*cache).probe(set, tag);
            ASSERT_EQ(got != nullptr, slot != model.kNone) << "op " << op;
            if (got != nullptr) {
                ASSERT_EQ(*got, model.payloads[slot]) << "op " << op;
            }
        } else if (roll < 95000) { // insert a tag the set does not hold
            if (slot != model.kNone)
                continue;
            const u64 payload = rng.next();
            const auto victim = cache->insert(set, tag, payload);
            const auto expected = model.insert(set, tag, payload);
            ASSERT_EQ(victim.has_value(), expected.has_value())
                << "op " << op;
            if (victim) {
                ++evictions;
                ASSERT_EQ(victim->tag, expected->first) << "op " << op;
                ASSERT_EQ(victim->payload, expected->second)
                    << "op " << op;
            }
        } else if (roll < 99000) { // invalidate one tag
            ASSERT_EQ(cache->invalidate(set, tag), slot != model.kNone)
                << "op " << op;
            if (slot != model.kNone)
                model.erase(slot);
        } else if (roll < 99050) { // purge scan of one tag per set
            const u64 pick = rng.nextBelow(tag_space);
            const auto pred = [pick](const Tag &t, const u64 &) {
                return tagValue(t) == pick;
            };
            const PurgeResult result = cache->invalidateIf(pred);
            u64 expected = 0;
            for (std::size_t i = 0; i < model.valid.size(); ++i) {
                if (model.valid[i] && pred(model.tags[i], 0)) {
                    model.erase(i);
                    ++expected;
                }
            }
            ASSERT_EQ(result.scanned, sets * ways) << "op " << op;
            ASSERT_EQ(result.invalidated, expected) << "op " << op;
        } else if (roll < 99550) { // injected eviction of the n-th entry
            std::size_t n = static_cast<std::size_t>(
                rng.nextBelow(model.live + 2));
            const auto dropped = cache->invalidateNth(n);
            std::size_t i = 0;
            for (; i < model.valid.size(); ++i) {
                if (model.valid[i] && n-- == 0)
                    break;
            }
            ASSERT_EQ(dropped.has_value(), i < model.valid.size())
                << "op " << op;
            if (dropped) {
                ASSERT_EQ(dropped->tag, model.tags[i]) << "op " << op;
                ASSERT_EQ(dropped->payload, model.payloads[i])
                    << "op " << op;
                model.erase(i);
            }
        } else if (roll < 99555) { // flash invalidate
            ASSERT_EQ(cache->invalidateAll(), model.live)
                << "op " << op;
            model.reset();
        } else { // snapshot round trip
            const std::vector<u8> image = cacheImage(*cache);
            ASSERT_EQ(image, model.image()) << "op " << op;
            cache = std::make_unique<AssocCache<Tag, u64>>(sets, ways,
                                                           kind, seed);
            loadImage(*cache, image);
            ++round_trips;
        }
        ASSERT_EQ(cache->occupancy(), model.live) << "op " << op;
    }
    EXPECT_EQ(cacheImage(*cache), model.image());
    EXPECT_GT(round_trips, 0);
    EXPECT_GT(evictions, ops / 30);
}

struct SoakGeometry
{
    std::size_t sets;
    std::size_t ways;
};

constexpr SoakGeometry kSoakGeometries[] = {
    {1, 4}, {1, 16}, {1, 128}, {1, 512}, {64, 32}, {2048, 1}, {256, 4},
};
constexpr PolicyKind kSoakPolicies[] = {
    PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Random,
    PolicyKind::TreePlru,
};

/** A full 1xways LRU model, every way touched in a shuffled order. */
ScanModel<u64>
filledModel(std::size_t ways)
{
    ScanModel<u64> model(1, ways, PolicyKind::Lru, 1);
    for (u64 tag = 0; tag < ways; ++tag)
        model.insert(0, tag, tag * 10);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        model.touch(static_cast<std::size_t>(rng.nextBelow(ways)));
    return model;
}

} // namespace

TEST(AssocCacheSoakTest, IntegerTagsMatchScanModel)
{
    u64 seed = 1;
    for (const SoakGeometry &g : kSoakGeometries) {
        for (PolicyKind kind : kSoakPolicies)
            soak<u64>(g.sets, g.ways, kind, seed++);
    }
}

TEST(AssocCacheSoakTest, CollidingHashesMatchScanModel)
{
    u64 seed = 100;
    for (const SoakGeometry &g : kSoakGeometries) {
        for (PolicyKind kind : kSoakPolicies)
            soak<CollidingTag>(g.sets, g.ways, kind, seed++);
    }
}

TEST(AssocCacheTest, LoadRebuildsRecencyOrderFromStamps)
{
    // Equal stamps tie-break by way: after the load, the victims must
    // come out in (stamp, way) order, as the scan's first minimum.
    ScanModel<u64> model = filledModel(128);
    for (std::size_t way = 40; way < 60; ++way)
        model.stamps[way] = 7;
    AssocCache<u64, u64> cache(1, 128, PolicyKind::Lru);
    loadImage(cache, model.image());
    for (u64 tag = 1000; tag < 1200; ++tag) {
        const auto victim = cache.insert(0, tag, tag);
        const auto expected = model.insert(0, tag, tag);
        ASSERT_TRUE(victim.has_value() && expected.has_value());
        ASSERT_EQ(victim->tag, expected->first) << "tag " << tag;
    }
}

TEST(AssocCacheDeathTest, LoadRejectsStampAheadOfClock)
{
    ScanModel<u64> model = filledModel(128);
    model.stamps[17] = model.clock + 1;
    const std::vector<u8> image = model.image();
    AssocCache<u64, u64> cache(1, 128, PolicyKind::Lru);
    EXPECT_DEATH(loadImage(cache, image),
                 "corrupt snapshot: replacement stamp .* ahead of its "
                 "clock");
}

TEST(AssocCacheDeathTest, LoadRejectsDuplicateTagInWideSet)
{
    ScanModel<u64> model = filledModel(512);
    model.tags[400] = model.tags[3];
    const std::vector<u8> image = model.image();
    AssocCache<u64, u64> cache(1, 512, PolicyKind::Lru);
    EXPECT_DEATH(loadImage(cache, image),
                 "corrupt snapshot: duplicate tag in cache set 0");
}

// ---------------------------------------------------------------------
// Data cache

// gtest prints a parameter without a PrintTo() as its raw bytes, and
// that text becomes part of each registered test name. The name is held
// inline (not as a pointer) so the struct has no padding and no
// address in it: its bytes, and so the test names, are the same on
// every build and run.
struct CacheOrgParam
{
    CacheOrg org;
    char name[12];
};
static_assert(sizeof(CacheOrgParam) == 16 &&
              std::has_unique_object_representations_v<CacheOrgParam>);

class DataCacheOrgTest : public ::testing::TestWithParam<CacheOrgParam>
{
  protected:
    DataCacheConfig
    makeConfig(u32 ways = 1)
    {
        DataCacheConfig config;
        config.sizeBytes = 4 * 1024;
        config.lineBytes = 32;
        config.ways = ways;
        config.org = GetParam().org;
        return config;
    }

    std::optional<vm::PAddr>
    pa(vm::VAddr va)
    {
        // Identity-ish translation with a frame offset so virtual and
        // physical indexes differ.
        return vm::PAddr(va.raw() + 0x100000);
    }

    stats::Group root{"test"};
};

TEST_P(DataCacheOrgTest, MissThenHit)
{
    DataCache cache(makeConfig(), &root);
    const vm::VAddr va(0x5000);
    EXPECT_FALSE(cache.access(va, pa(va), false));
    cache.fill(va, *pa(va), false);
    EXPECT_TRUE(cache.access(va, pa(va), false));
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
}

TEST_P(DataCacheOrgTest, SameLineSharedAcrossWords)
{
    DataCache cache(makeConfig(), &root);
    const vm::VAddr va(0x5000);
    cache.fill(va, *pa(va), false);
    EXPECT_TRUE(cache.access(va + 8, pa(va + 8), false));
    EXPECT_FALSE(cache.access(va + 32, pa(va + 32), false));
}

TEST_P(DataCacheOrgTest, StoreMakesLineDirtyAndWritebackOnEvict)
{
    // Direct-mapped: two addresses one cache-size apart collide.
    DataCache cache(makeConfig(1), &root);
    const vm::VAddr a(0x0), b(0x1000); // 4KB apart = same index
    cache.fill(a, *pa(a), true); // dirty
    auto victim = cache.fill(b, *pa(b), false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST_P(DataCacheOrgTest, CleanEvictionNeedsNoWriteback)
{
    DataCache cache(makeConfig(1), &root);
    const vm::VAddr a(0x0), b(0x1000);
    cache.fill(a, *pa(a), false);
    auto victim = cache.fill(b, *pa(b), false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_FALSE(victim->dirty);
}

TEST_P(DataCacheOrgTest, FlushPageRemovesAllItsLines)
{
    DataCache cache(makeConfig(2), &root);
    const vm::VAddr page(0x4000);
    for (u64 off = 0; off < vm::kPageBytes; off += 32)
        cache.fill(page + off, *pa(page + off), off == 0);
    EXPECT_EQ(cache.occupancy(), vm::kPageBytes / 32);

    const vm::Vpn vpn = vm::pageOf(page);
    const vm::Pfn pfn(pa(page)->raw() >> vm::kPageShift);
    const FlushResult result = cache.flushPage(vpn, pfn);
    EXPECT_EQ(result.lineAccesses, vm::kPageBytes / 32);
    EXPECT_EQ(result.invalidated, vm::kPageBytes / 32);
    EXPECT_EQ(result.writebacks, 1u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST_P(DataCacheOrgTest, FlushPageLeavesOtherPagesAlone)
{
    DataCache cache(makeConfig(2), &root);
    const vm::VAddr a(0x4000), b(0x8000);
    cache.fill(a, *pa(a), false);
    cache.fill(b, *pa(b), false);
    cache.flushPage(vm::pageOf(a), vm::Pfn(pa(a)->raw() >> vm::kPageShift));
    EXPECT_FALSE(cache.access(a, pa(a), false));
    EXPECT_TRUE(cache.access(b, pa(b), false));
}

TEST_P(DataCacheOrgTest, FlushAllEmptiesCache)
{
    DataCache cache(makeConfig(2), &root);
    for (u64 i = 0; i < 8; ++i) {
        const vm::VAddr va(i * 64);
        cache.fill(va, *pa(va), i % 2 == 0);
    }
    const FlushResult result = cache.flushAll();
    EXPECT_EQ(result.invalidated, 8u);
    EXPECT_EQ(result.writebacks, 4u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Orgs, DataCacheOrgTest,
    ::testing::Values(CacheOrgParam{CacheOrg::Vivt, "vivt"},
                      CacheOrgParam{CacheOrg::Vipt, "vipt"},
                      CacheOrgParam{CacheOrg::Pipt, "pipt"}),
    [](const ::testing::TestParamInfo<CacheOrgParam> &info) {
        return info.param.name;
    });

TEST(DataCacheTest, VivtNeedsNoPhysicalAddress)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vivt;
    DataCache cache(config, &root);
    EXPECT_FALSE(cache.access(vm::VAddr(0x100), std::nullopt, false));
}

TEST(DataCacheDeathTest, ViptRequiresPhysicalAddress)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vipt;
    DataCache cache(config, &root);
    EXPECT_DEATH(cache.access(vm::VAddr(0x100), std::nullopt, false),
                 "physical address");
}

TEST(DataCacheTest, VivtSharingHitsAcrossDomainsAtSameAddress)
{
    // The paper's Section 2.2 point: in a single address space the
    // same virtual address means the same data, so one domain's cached
    // line serves another domain with no flush and no ASID.
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vivt;
    DataCache cache(config, &root);
    const vm::VAddr shared(0x9000);
    cache.fill(shared, vm::PAddr(0x59000), false); // domain A misses
    EXPECT_TRUE(cache.access(shared, std::nullopt, false)); // domain B hits
}

TEST(DataCacheTest, ContainsVirtualLineReflectsContents)
{
    stats::Group root("test");
    DataCacheConfig config;
    DataCache cache(config, &root);
    const vm::VAddr va(0x2000);
    EXPECT_FALSE(cache.containsVirtualLine(va.raw() / config.lineBytes));
    cache.fill(va, vm::PAddr(0x72000), false);
    EXPECT_TRUE(cache.containsVirtualLine(va.raw() / config.lineBytes));
}

// ---------------------------------------------------------------------
// Geometry sweep: the shift/mask DataCache against a division model

namespace
{

/** One data-cache geometry. No padding, so gtest's byte dump of it
 * (part of each ctest name) is the same on every build and run. */
struct CacheGeometry
{
    u64 sizeBytes;
    u32 lineBytes;
    u32 ways;
    CacheOrg org;
    u32 pad = 0;
};
static_assert(std::has_unique_object_representations_v<CacheGeometry>);

void
PrintTo(const CacheGeometry &g, std::ostream *os)
{
    *os << g.sizeBytes << "B/" << g.lineBytes << "B-line/" << g.ways
        << "-way/" << toString(g.org);
}

/**
 * The data cache restated with divisions and modulos over a per-set
 * LRU list, kept independent of DataCache's shifts and masks.
 */
class DivisionCacheModel
{
  public:
    explicit DivisionCacheModel(const CacheGeometry &g)
        : g_(g), sets_(g.sizeBytes / g.lineBytes / g.ways), lines_(sets_)
    {
    }

    bool
    access(u64 va, u64 pa, bool store)
    {
        const Line probe{va / g_.lineBytes, pa / g_.lineBytes, false};
        auto &set = lines_[setOf(probe.vline, probe.pline)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (tagOf(*it) == tagOf(probe)) {
                Line line = *it;
                line.dirty = line.dirty || store;
                set.erase(it);
                set.push_back(line); // most recent at the back
                return true;
            }
        }
        return false;
    }

    std::optional<CacheVictim>
    fill(u64 va, u64 pa, bool store)
    {
        const Line line{va / g_.lineBytes, pa / g_.lineBytes, store};
        auto &set = lines_[setOf(line.vline, line.pline)];
        std::optional<CacheVictim> victim;
        if (set.size() == g_.ways) {
            const Line &lru = set.front();
            victim = CacheVictim{lru.vline, lru.pline, lru.dirty};
            set.pop_front();
        }
        set.push_back(line);
        return victim;
    }

    FlushResult
    flushPage(u64 vpn, u64 pfn, int page_shift)
    {
        FlushResult result;
        const u64 per_page = (u64{1} << page_shift) / g_.lineBytes;
        const u64 first_vline = (vpn << page_shift) / g_.lineBytes;
        const u64 first_pline = (pfn << page_shift) / g_.lineBytes;
        for (u64 i = 0; i < per_page; ++i) {
            ++result.lineAccesses;
            const u64 vline = first_vline + i;
            const u64 pline = first_pline + i;
            auto &set = lines_[setOf(vline, pline)];
            for (auto it = set.begin(); it != set.end(); ++it) {
                const bool match = g_.org == CacheOrg::Pipt
                                       ? it->pline == pline
                                       : it->vline == vline;
                if (match) {
                    ++result.invalidated;
                    result.writebacks += it->dirty;
                    set.erase(it);
                    break;
                }
            }
        }
        return result;
    }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto &set : lines_)
            n += set.size();
        return n;
    }

  private:
    struct Line
    {
        u64 vline;
        u64 pline;
        bool dirty;
    };

    std::size_t
    setOf(u64 vline, u64 pline) const
    {
        return (g_.org == CacheOrg::Pipt ? pline : vline) % sets_;
    }

    u64
    tagOf(const Line &line) const
    {
        return g_.org == CacheOrg::Vivt ? line.vline : line.pline;
    }

    CacheGeometry g_;
    u64 sets_;
    std::vector<std::list<Line>> lines_;
};

std::vector<CacheGeometry>
cacheGeometries()
{
    std::vector<CacheGeometry> out;
    for (u64 size : {u64{2048}, u64{16384}})
        for (u32 line : {16u, 32u, 64u, 128u})
            for (u32 ways : {1u, 2u, 4u, 8u})
                for (CacheOrg org :
                     {CacheOrg::Vivt, CacheOrg::Vipt, CacheOrg::Pipt})
                    out.push_back(CacheGeometry{size, line, ways, org});
    return out;
}

} // namespace

class DataCacheGeometryTest : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(DataCacheGeometryTest, MatchesDivisionModel)
{
    const CacheGeometry g = GetParam();
    DataCacheConfig config;
    config.sizeBytes = g.sizeBytes;
    config.lineBytes = g.lineBytes;
    config.ways = g.ways;
    config.org = g.org;
    stats::Group root("test");
    DataCache cache(config, &root);
    DivisionCacheModel model(g);

    // 24 virtual pages over 16 frames: a fixed scattered translation,
    // so virtual and physical set indexes differ.
    constexpr u64 kPages = 24;
    const auto pfn_of = [](u64 vpn) { return (vpn * 7 + 3) % 16; };
    const auto pa_of = [&](u64 va) {
        return (pfn_of(va >> vm::kPageShift) << vm::kPageShift) |
               (va & (vm::kPageBytes - 1));
    };
    Rng rng(0xd47a);
    for (int op = 0; op < 20000; ++op) {
        if (rng.nextBelow(16) == 0) {
            // Flush a base page, or an 8 KB block (two base pages
            // whose translations are flushed as one physical run).
            const int shift = vm::kPageShift + static_cast<int>(
                                                   rng.nextBelow(2));
            const u64 vpn = rng.nextBelow(kPages >> (shift - vm::kPageShift));
            const u64 pfn = pfn_of(vpn << (shift - vm::kPageShift)) >>
                            (shift - vm::kPageShift);
            const FlushResult got =
                cache.flushPage(vm::Vpn(vpn), vm::Pfn(pfn), shift);
            const FlushResult want = model.flushPage(vpn, pfn, shift);
            ASSERT_EQ(got.lineAccesses, want.lineAccesses) << "op " << op;
            ASSERT_EQ(got.invalidated, want.invalidated) << "op " << op;
            ASSERT_EQ(got.writebacks, want.writebacks) << "op " << op;
        } else {
            const u64 va = rng.nextBelow(kPages * vm::kPageBytes);
            const u64 pa = pa_of(va);
            const bool store = rng.nextBelow(4) == 0;
            const bool hit =
                cache.access(vm::VAddr(va), vm::PAddr(pa), store);
            ASSERT_EQ(hit, model.access(va, pa, store)) << "op " << op;
            if (!hit) {
                const auto got = cache.fill(vm::VAddr(va), vm::PAddr(pa),
                                            store);
                const auto want = model.fill(va, pa, store);
                ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
                if (got) {
                    EXPECT_EQ(got->vline, want->vline) << "op " << op;
                    EXPECT_EQ(got->pline, want->pline) << "op " << op;
                    EXPECT_EQ(got->dirty, want->dirty) << "op " << op;
                }
            }
        }
        ASSERT_EQ(cache.occupancy(), model.occupancy()) << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DataCacheGeometryTest,
    ::testing::ValuesIn(cacheGeometries()),
    [](const ::testing::TestParamInfo<CacheGeometry> &info) {
        const CacheGeometry &g = info.param;
        return "s" + std::to_string(g.sizeBytes) + "_l" +
               std::to_string(g.lineBytes) + "_w" + std::to_string(g.ways) +
               "_" + toString(g.org);
    });

TEST(DataCacheDeathTest, RejectsNonPowerOfTwoLineSize)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.sizeBytes = 4 * 1024;
    config.lineBytes = 48;
    EXPECT_DEATH({ DataCache cache(config, &root); }, "line size not 2\\^k");
}

TEST(DataCacheDeathTest, RejectsNonPowerOfTwoSetCount)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.sizeBytes = 3 * 1024; // 96 sets of one 32-byte line
    config.lineBytes = 32;
    EXPECT_DEATH({ DataCache cache(config, &root); }, "set count not 2\\^k");
}
