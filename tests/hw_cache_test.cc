/**
 * @file
 * Tests for replacement policies, the generic associative store and
 * the data cache model, including a randomized equivalence check of
 * the associative store against a reference model and parameterized
 * sweeps over cache organizations.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <type_traits>

#include "hw/assoc_cache.hh"
#include "hw/data_cache.hh"
#include "hw/replacement.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

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
