/**
 * @file
 * Unit tests for the vm substrate: addresses, rights, segments, the
 * global page table (no-homonym/no-synonym invariants), protection
 * tables, frame allocation (checked against a reference model of the
 * original descending free-list allocator, through snapshot round
 * trips, and against every corrupt `frames` section) and the
 * linear-page-table space model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "sim/random.hh"
#include "snap/snapio.hh"
#include "vm/address.hh"
#include "vm/linear_page_table.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/prot_table.hh"
#include "vm/rights.hh"
#include "vm/segment.hh"

using namespace sasos;
using namespace sasos::vm;

TEST(AddressTest, PageDecomposition)
{
    const VAddr va(0x12345678);
    EXPECT_EQ(pageOf(va).number(), 0x12345u);
    EXPECT_EQ(offsetOf(va), 0x678u);
    EXPECT_EQ(baseOf(pageOf(va)).raw(), 0x12345000u);
}

TEST(AddressTest, TranslateCombinesFrameAndOffset)
{
    const VAddr va(0xABC123);
    const Pfn pfn(0x77);
    EXPECT_EQ(translate(va, pfn).raw(), (0x77ull << 12) | 0x123u);
}

TEST(AddressTest, CustomPageShift)
{
    const VAddr va(0x10000);
    EXPECT_EQ(pageOf(va, 16).number(), 1u);
    EXPECT_EQ(offsetOf(va, 16), 0u);
}

TEST(AddressTest, StrongTypesCompare)
{
    EXPECT_LT(Vpn(1), Vpn(2));
    EXPECT_EQ(VAddr(5) + 3, VAddr(8));
    EXPECT_EQ(Vpn(5) + 2, Vpn(7));
}

TEST(RightsTest, IncludesChecksSubsets)
{
    EXPECT_TRUE(includes(Access::ReadWrite, Access::Read));
    EXPECT_TRUE(includes(Access::ReadWrite, Access::Write));
    EXPECT_FALSE(includes(Access::Read, Access::Write));
    EXPECT_TRUE(includes(Access::All, Access::ReadWrite));
    EXPECT_TRUE(includes(Access::None, Access::None));
    EXPECT_FALSE(includes(Access::None, Access::Read));
}

TEST(RightsTest, RequiredRightPerAccessType)
{
    EXPECT_EQ(requiredRight(AccessType::Load), Access::Read);
    EXPECT_EQ(requiredRight(AccessType::Store), Access::Write);
    EXPECT_EQ(requiredRight(AccessType::IFetch), Access::Execute);
}

TEST(RightsTest, OperatorsComposeAndMask)
{
    EXPECT_EQ(Access::Read | Access::Write, Access::ReadWrite);
    EXPECT_EQ(Access::ReadWrite & Access::Read, Access::Read);
    EXPECT_EQ(Access::ReadWrite & ~Access::Write, Access::Read);
    EXPECT_EQ(~Access::None, Access::All);
}

TEST(RightsTest, ToStringRendering)
{
    EXPECT_EQ(toString(Access::None), "---");
    EXPECT_EQ(toString(Access::ReadWrite), "rw-");
    EXPECT_EQ(toString(Access::All), "rwx");
    EXPECT_EQ(toString(Access::ReadExecute), "r-x");
}

TEST(SegmentTest, CreationAssignsDisjointRanges)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 10);
    const SegmentId b = table.create("b", 20);
    const Segment *sa = table.find(a);
    const Segment *sb = table.find(b);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    // Ranges must not overlap.
    EXPECT_TRUE(sa->lastPage() < sb->firstPage ||
                sb->lastPage() < sa->firstPage);
}

TEST(SegmentTest, AddressesNeverReused)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 16);
    const Vpn first_a = table.find(a)->firstPage;
    table.destroy(a);
    const SegmentId b = table.create("b", 16);
    // The new segment must not reuse the retired range.
    EXPECT_GT(table.find(b)->firstPage.number(), first_a.number());
}

TEST(SegmentTest, FindByPage)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 4);
    const Segment *seg = table.find(a);
    EXPECT_EQ(table.findByPage(seg->firstPage), seg);
    EXPECT_EQ(table.findByPage(seg->lastPage()), seg);
    EXPECT_EQ(table.findByPage(Vpn(seg->lastPage().number() + 1)), nullptr);
    EXPECT_EQ(table.findByPage(Vpn(0)), nullptr);
}

TEST(SegmentTest, FindByPageAfterDestroy)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 4);
    const Vpn page = table.find(a)->firstPage;
    table.destroy(a);
    EXPECT_EQ(table.findByPage(page), nullptr);
    EXPECT_EQ(table.find(a), nullptr);
}

TEST(SegmentTest, PowerOfTwoAlignment)
{
    SegmentTable table;
    table.create("pad", 3); // misalign the allocator
    const SegmentId s = table.create("aligned", 16, true);
    const Segment *seg = table.find(s);
    EXPECT_TRUE(seg->isPowerOfTwoAligned());
    EXPECT_EQ(seg->firstPage.number() % 16, 0u);
}

TEST(SegmentTest, NonPow2SizeNeverAligned)
{
    SegmentTable table;
    const SegmentId s = table.create("odd", 12, true);
    EXPECT_FALSE(table.find(s)->isPowerOfTwoAligned());
}

TEST(SegmentTest, ContainsChecksBounds)
{
    SegmentTable table;
    const Segment *seg = table.find(table.create("s", 2));
    EXPECT_TRUE(seg->contains(seg->base()));
    EXPECT_TRUE(seg->contains(seg->base() + (2 * kPageBytes - 1)));
    EXPECT_FALSE(seg->contains(seg->base() + 2 * kPageBytes));
}

TEST(SegmentTest, LiveIdsTracksCreationAndDestruction)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 1);
    const SegmentId b = table.create("b", 1);
    EXPECT_EQ(table.liveIds().size(), 2u);
    table.destroy(a);
    const auto live = table.liveIds();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0], b);
}

TEST(FrameAllocatorTest, AllocateAndFree)
{
    FrameAllocator frames(4);
    EXPECT_EQ(frames.capacity(), 4u);
    auto f0 = frames.allocate();
    ASSERT_TRUE(f0.has_value());
    EXPECT_TRUE(frames.isAllocated(*f0));
    EXPECT_EQ(frames.inUse(), 1u);
    frames.free(*f0);
    EXPECT_FALSE(frames.isAllocated(*f0));
    EXPECT_EQ(frames.inUse(), 0u);
}

TEST(FrameAllocatorTest, ExhaustionReturnsNullopt)
{
    FrameAllocator frames(2);
    EXPECT_TRUE(frames.allocate().has_value());
    EXPECT_TRUE(frames.allocate().has_value());
    EXPECT_FALSE(frames.allocate().has_value());
}

TEST(FrameAllocatorTest, FramesAreRecycled)
{
    FrameAllocator frames(1);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_EQ(frames.allocate(), f);
}

TEST(FrameAllocatorDeathTest, DoubleFreePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_DEATH(frames.free(f), "double free");
}

TEST(FrameAllocatorTest, RefcountsTrackSharers)
{
    FrameAllocator frames(4);
    const Pfn f = *frames.allocate();
    EXPECT_EQ(frames.refCount(f), 1u);
    frames.ref(f);
    frames.ref(f);
    EXPECT_EQ(frames.refCount(f), 3u);
    // Dropping sharers keeps the frame allocated until the last one.
    frames.unref(f);
    frames.unref(f);
    EXPECT_EQ(frames.refCount(f), 1u);
    EXPECT_TRUE(frames.isAllocated(f));
    EXPECT_EQ(frames.inUse(), 1u);
    frames.unref(f);
    EXPECT_FALSE(frames.isAllocated(f));
    EXPECT_EQ(frames.refCount(f), 0u);
    EXPECT_EQ(frames.inUse(), 0u);
}

TEST(FrameAllocatorTest, UnrefOfLastReferenceRecyclesTheFrame)
{
    FrameAllocator frames(1);
    const Pfn f = *frames.allocate();
    frames.ref(f);
    EXPECT_FALSE(frames.allocate().has_value());
    frames.unref(f);
    frames.unref(f);
    EXPECT_EQ(frames.allocate(), f);
}

TEST(FrameAllocatorDeathTest, ExclusiveFreeOfSharedFramePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.ref(f);
    // free() is the exclusive-owner form; shared frames must go
    // through unref().
    EXPECT_DEATH(frames.free(f), "freeing shared frame");
}

TEST(FrameAllocatorDeathTest, RefOfUnallocatedFramePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_DEATH(frames.ref(f), "ref of unallocated frame");
}

namespace
{

/** The allocator as first written: a free list seeded with every
 * frame in descending order, popped from the back, frees pushed on.
 * FrameAllocator must hand out exactly the frames this does. */
class ReferenceAllocator
{
  public:
    explicit ReferenceAllocator(u64 capacity) : refs_(capacity, 0)
    {
        for (u64 i = capacity; i > 0; --i)
            free_.push_back(i - 1);
    }

    std::optional<u64>
    allocate()
    {
        if (free_.empty())
            return std::nullopt;
        const u64 frame = free_.back();
        free_.pop_back();
        refs_[frame] = 1;
        return frame;
    }

    void ref(u64 frame) { ++refs_[frame]; }

    void
    unref(u64 frame)
    {
        if (--refs_[frame] == 0)
            free_.push_back(frame);
    }

    u32 refCount(u64 frame) const { return refs_[frame]; }
    u64 inUse() const { return refs_.size() - free_.size(); }

  private:
    std::vector<u32> refs_;
    std::vector<u64> free_;
};

/** Round-trip an allocator through a sealed snapshot image. */
FrameAllocator
roundTrip(const FrameAllocator &frames, std::size_t *image_bytes = nullptr)
{
    snap::SnapWriter w;
    frames.save(w);
    if (image_bytes != nullptr)
        *image_bytes = w.bytes();
    snap::SnapReader r(w.seal());
    FrameAllocator restored(frames.capacity());
    restored.load(r);
    r.finish();
    return restored;
}

/** Seal a hand-built section, stamped with an older version when
 * `version` says so (the checksum covers only the payload). */
std::vector<u8>
sealAs(const snap::SnapWriter &w, u32 version = snap::kFormatVersion)
{
    std::vector<u8> image = w.seal();
    for (int i = 0; i < 4; ++i)
        image[8 + i] = static_cast<u8>(version >> (8 * i));
    return image;
}

/** A v4 `frames` section with every field under the caller's control. */
std::vector<u8>
v4Frames(u64 capacity, u64 mark, const std::vector<u32> &refs,
         u64 freed_count, const std::vector<u64> &freed)
{
    snap::SnapWriter w;
    w.putTag("frames");
    w.put64(capacity);
    w.put64(mark);
    for (u32 count : refs)
        w.put32(count);
    w.put64(freed_count);
    for (u64 frame : freed)
        w.put64(frame);
    return sealAs(w);
}

/** A v3 `frames` section: allocation bitmap, in-use count, verbatim
 * free list, refcounts of the allocated frames. */
std::vector<u8>
v3Frames(u64 capacity, const std::vector<u32> &refs,
         const std::vector<u64> &free_list)
{
    snap::SnapWriter w;
    w.putTag("frames");
    w.put64(capacity);
    u64 in_use = 0;
    for (u64 byte = 0; byte < (capacity + 7) / 8; ++byte) {
        u8 bits = 0;
        for (u64 bit = 0; bit < 8 && byte * 8 + bit < capacity; ++bit) {
            if (refs[byte * 8 + bit] > 0) {
                bits |= static_cast<u8>(1u << bit);
                ++in_use;
            }
        }
        w.put8(bits);
    }
    w.put64(in_use);
    w.put64(free_list.size());
    for (u64 frame : free_list)
        w.put64(frame);
    for (u32 count : refs) {
        if (count > 0)
            w.put32(count);
    }
    return sealAs(w, 3);
}

void
loadInto(FrameAllocator &frames, std::vector<u8> image)
{
    snap::SnapReader r(std::move(image));
    frames.load(r);
    r.finish();
}

} // namespace

TEST(FrameAllocatorTest, SoakMatchesReferenceThroughRandomRoundTrips)
{
    // A small pool keeps exhaustion frequent; random allocate/free/
    // ref/unref, checked after every step, with a snapshot round trip
    // at random cut points.
    constexpr u64 kCapacity = 48;
    Rng rng(2024);
    FrameAllocator frames(kCapacity);
    ReferenceAllocator reference(kCapacity);
    std::vector<u64> live;
    u64 exhaustions = 0;
    u64 round_trips = 0;
    for (int step = 0; step < 20000; ++step) {
        const u64 op = rng.nextBelow(10);
        if (op < 4 || live.empty()) {
            const std::optional<Pfn> got = frames.allocate();
            const std::optional<u64> want = reference.allocate();
            ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
            if (got) {
                ASSERT_EQ(got->number(), *want) << "step " << step;
                live.push_back(*want);
            } else {
                ++exhaustions;
            }
        } else {
            const std::size_t pick = rng.nextBelow(live.size());
            const u64 frame = live[pick];
            if (op < 6) {
                frames.ref(Pfn(frame));
                reference.ref(frame);
            } else if (op < 7 && reference.refCount(frame) == 1) {
                frames.free(Pfn(frame));
                reference.unref(frame);
            } else {
                frames.unref(Pfn(frame));
                reference.unref(frame);
            }
            if (reference.refCount(frame) == 0) {
                live[pick] = live.back();
                live.pop_back();
            }
        }
        ASSERT_EQ(frames.inUse(), reference.inUse()) << "step " << step;
        ASSERT_EQ(frames.available(), kCapacity - reference.inUse());
        for (u64 frame = 0; frame < kCapacity; ++frame) {
            ASSERT_EQ(frames.refCount(Pfn(frame)),
                      reference.refCount(frame))
                << "frame " << frame << " step " << step;
            ASSERT_EQ(frames.isAllocated(Pfn(frame)),
                      reference.refCount(frame) > 0);
        }
        if (rng.nextBelow(200) == 0) {
            FrameAllocator restored = roundTrip(frames);
            ASSERT_EQ(restored.highWaterMark(), frames.highWaterMark());
            frames = std::move(restored);
            ++round_trips;
        }
    }
    EXPECT_GT(exhaustions, 100u) << "soak never ran the pool dry";
    EXPECT_GT(round_trips, 50u);
}

TEST(FrameAllocatorTest, ImageScalesWithTheHighWaterMark)
{
    // A pool the size of the default machine, of which a handful of
    // frames were ever touched: the section holds the mark's
    // refcounts and the freed stack, not one word per installed frame.
    FrameAllocator frames(u64{1} << 18);
    std::vector<Pfn> held;
    for (int i = 0; i < 10; ++i)
        held.push_back(*frames.allocate());
    frames.free(held[3]);
    frames.free(held[7]);
    std::size_t bytes = 0;
    FrameAllocator restored = roundTrip(frames, &bytes);
    EXPECT_EQ(frames.highWaterMark(), 10u);
    EXPECT_LT(bytes, 200u);
    EXPECT_EQ(restored.inUse(), 8u);
    // Same frames, same order: the freed stack first, then the mark.
    EXPECT_EQ(restored.allocate(), held[7]);
    EXPECT_EQ(restored.allocate(), held[3]);
    EXPECT_EQ(restored.allocate(), Pfn(10));
}

TEST(FrameAllocatorTest, V3FreeListConvertsToTheSameFutureFrames)
{
    // Frames 0 and 2 allocated, 1 freed: v3 wrote the never-used
    // run [7 .. 3] followed by the freed frame.
    const std::vector<u32> refs = {1, 0, 2, 0, 0, 0, 0, 0};
    FrameAllocator frames(8);
    loadInto(frames, v3Frames(8, refs, {7, 6, 5, 4, 3, 1}));
    EXPECT_EQ(frames.inUse(), 2u);
    EXPECT_EQ(frames.highWaterMark(), 3u);
    EXPECT_EQ(frames.refCount(Pfn(2)), 2u);
    for (u64 want : {1, 3, 4, 5, 6, 7})
        EXPECT_EQ(frames.allocate(), Pfn(want));
    EXPECT_FALSE(frames.allocate().has_value());

    // A list with no never-used run at all: every frame is below the
    // mark (= capacity) and the whole list is the freed stack.
    FrameAllocator stacked(4);
    loadInto(stacked, v3Frames(4, {1, 0, 1, 0}, {1, 3}));
    EXPECT_EQ(stacked.highWaterMark(), 4u);
    EXPECT_EQ(stacked.allocate(), Pfn(3));
    EXPECT_EQ(stacked.allocate(), Pfn(1));
    EXPECT_FALSE(stacked.allocate().has_value());
}

TEST(FrameAllocatorDeathTest, CorruptV4FramesAreRejected)
{
    FrameAllocator frames(8);
    EXPECT_DEATH(loadInto(frames, v4Frames(8, 3, {1, 0, 1}, 1, {5})),
                 "at or above the high-water mark");
    EXPECT_DEATH(loadInto(frames, v4Frames(8, 4, {0, 0, 1, 1}, 2, {1, 1})),
                 "on the freed stack twice");
    EXPECT_DEATH(loadInto(frames, v4Frames(8, 3, {1, 0, 2}, 1, {2})),
                 "still holds 2 references");
    EXPECT_DEATH(loadInto(frames, v4Frames(8, 3, {0, 0, 1}, 1, {0})),
                 "freed stack carries 1 frames, but 2");
    EXPECT_DEATH(loadInto(frames, v4Frames(8, 9, {}, 0, {})),
                 "high-water mark 9 beyond capacity 8");
    EXPECT_DEATH(loadInto(frames, v4Frames(16, 0, {}, 0, {})),
                 "16 physical frames, this configuration has 8");
}

TEST(FrameAllocatorDeathTest, NonCanonicalV3FreeListIsRejected)
{
    // After the descending run [7 .. 2] ends, frame 6 is not below
    // the run: no allocator ever wrote this list.
    FrameAllocator frames(8);
    EXPECT_DEATH(loadInto(frames, v3Frames(8, {1, 0, 0, 0, 0, 0, 0, 0},
                                           {7, 6, 5, 4, 3, 2, 6})),
                 "not a descending run");
    EXPECT_DEATH(loadInto(frames, v3Frames(8, {1, 0, 0, 0, 0, 0, 0, 0},
                                           {7, 6, 5, 4, 3, 1, 1})),
                 "on the free list twice");
    EXPECT_DEATH(loadInto(frames, v3Frames(8, {1, 0, 0, 0, 0, 0, 0, 0},
                                           {7, 6, 5, 4, 3, 2, 0})),
                 "both allocated and free");
}

TEST(PageTableTest, MapLookupUnmap)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    const Translation *t = table.lookup(Vpn(10));
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->pfn, Pfn(3));
    EXPECT_FALSE(t->dirty);
    EXPECT_EQ(table.unmap(Vpn(10)), Pfn(3));
    EXPECT_EQ(table.lookup(Vpn(10)), nullptr);
}

TEST(PageTableTest, ReverseMapTracksFrames)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(10));
    EXPECT_EQ(table.pageOfFrame(Pfn(4)), std::nullopt);
    table.unmap(Vpn(10));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), std::nullopt);
}

TEST(PageTableDeathTest, HomonymForbidden)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // A second translation for the same virtual page can never exist
    // in a single address space system.
    EXPECT_DEATH(table.map(Vpn(10), Pfn(4)), "homonym");
}

TEST(PageTableDeathTest, SynonymForbidden)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // Nor can one frame back two virtual pages.
    EXPECT_DEATH(table.map(Vpn(11), Pfn(3)), "synonym");
}

TEST(PageTableTest, MapSharedRelaxesTheSynonymRule)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // CoW sharing: the same frame may back further pages...
    table.mapShared(Vpn(11), Pfn(3));
    table.mapShared(Vpn(12), Pfn(3));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 3u);
    EXPECT_EQ(table.lookup(Vpn(11))->pfn, Pfn(3));
    // The reverse map reports the lowest mapping page, and unmapping
    // sharers peels them off one at a time.
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(10));
    EXPECT_EQ(table.unmap(Vpn(10)), Pfn(3));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(11));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 2u);
    table.unmap(Vpn(11));
    table.unmap(Vpn(12));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 0u);
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), std::nullopt);
}

TEST(PageTableDeathTest, MapSharedRequiresAMappedFrame)
{
    GlobalPageTable table;
    // Sharing only relaxes an existing mapping; a fresh frame must be
    // installed with map().
    EXPECT_DEATH(table.mapShared(Vpn(10), Pfn(3)), "sharing unmapped frame");
}

TEST(PageTableDeathTest, MapSharedStillForbidsHomonyms)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    table.mapShared(Vpn(11), Pfn(3));
    EXPECT_DEATH(table.mapShared(Vpn(11), Pfn(3)), "homonym");
}

TEST(PageTableTest, UsageBits)
{
    GlobalPageTable table;
    table.map(Vpn(1), Pfn(1));
    table.markReferenced(Vpn(1));
    EXPECT_TRUE(table.lookup(Vpn(1))->referenced);
    EXPECT_FALSE(table.lookup(Vpn(1))->dirty);
    table.markDirty(Vpn(1));
    EXPECT_TRUE(table.lookup(Vpn(1))->dirty);
    table.clearUsage(Vpn(1));
    EXPECT_FALSE(table.lookup(Vpn(1))->referenced);
    EXPECT_FALSE(table.lookup(Vpn(1))->dirty);
}

TEST(PageTableTest, ForEachVisitsAllMappings)
{
    GlobalPageTable table;
    table.map(Vpn(1), Pfn(10));
    table.map(Vpn(2), Pfn(11));
    int seen = 0;
    table.forEach([&](Vpn, const Translation &) { ++seen; });
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(table.size(), 2u);
}

class ProtTableTest : public ::testing::Test
{
  protected:
    ProtTableTest()
    {
        seg_ = segments_.create("seg", 8);
        other_ = segments_.create("other", 8);
    }

    SegmentTable segments_;
    SegmentId seg_;
    SegmentId other_;
    ProtectionTable prot_;
};

TEST_F(ProtTableTest, UnattachedIsNone)
{
    const Vpn page = segments_.find(seg_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::None);
}

TEST_F(ProtTableTest, SegmentGrantApplies)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::ReadWrite);
    // But not to other segments.
    const Vpn other_page = segments_.find(other_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(other_page, segments_), Access::None);
}

TEST_F(ProtTableTest, PageOverrideWins)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    prot_.setPageRights(page, Access::Read);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::Read);
    // Neighbouring pages keep the grant.
    EXPECT_EQ(prot_.effectiveRights(page + 1, segments_),
              Access::ReadWrite);
    prot_.clearPageRights(page);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::ReadWrite);
}

TEST_F(ProtTableTest, OverrideCanDenyEntirely)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    prot_.setPageRights(page, Access::None);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::None);
    EXPECT_TRUE(prot_.hasPageOverride(page));
}

TEST_F(ProtTableTest, DetachDropsGrantAndOverrides)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Segment *seg = segments_.find(seg_);
    prot_.setPageRights(seg->firstPage, Access::Read);
    prot_.setPageRights(seg->firstPage + 1, Access::None);
    const u64 removed = prot_.detachSegment(*seg);
    EXPECT_EQ(removed, 3u); // grant + 2 overrides
    EXPECT_FALSE(prot_.isAttached(seg_));
    EXPECT_EQ(prot_.effectiveRights(seg->firstPage, segments_),
              Access::None);
    EXPECT_EQ(prot_.pageOverrides(), 0u);
}

TEST_F(ProtTableTest, SetSegmentRightsReplacesGrant)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    prot_.setSegmentRights(seg_, Access::Read);
    EXPECT_EQ(prot_.segmentRights(seg_), Access::Read);
}

TEST_F(ProtTableTest, AttachedSegmentIds)
{
    prot_.attachSegment(seg_, Access::Read);
    prot_.attachSegment(other_, Access::ReadWrite);
    auto ids = prot_.attachedSegmentIds();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<SegmentId>{seg_, other_}));
}

TEST_F(ProtTableTest, SpaceAccountsEntries)
{
    prot_.attachSegment(seg_, Access::Read);
    prot_.setPageRights(segments_.find(seg_)->firstPage, Access::None);
    EXPECT_EQ(prot_.spaceBytes(16), 2u * 16u);
}

TEST(LinearPageTableTest, EmptyCostsNothing)
{
    LinearPageTableModel model;
    EXPECT_EQ(model.flatBytes(), 0u);
    EXPECT_EQ(model.twoLevelBytes(), 0u);
}

TEST(LinearPageTableTest, FlatSpansMinToMax)
{
    LinearPageTableModel model(8);
    model.addRange(Vpn(100), 1);
    model.addRange(Vpn(1000), 1);
    // Span = 901 pages even though only 2 are mapped: the sparsity
    // problem of Section 3.1.
    EXPECT_EQ(model.flatBytes(), 901u * 8u);
    EXPECT_EQ(model.denseBytes(), 2u * 8u);
}

TEST(LinearPageTableTest, TwoLevelOnlyAllocatesTouchedLeaves)
{
    LinearPageTableModel model(8, 12); // 512 PTEs per 4K leaf
    model.addRange(Vpn(0), 1);
    model.addRange(Vpn(512 * 100), 1); // a distant leaf
    // Two leaves + a directory spanning 101 leaf slots.
    EXPECT_EQ(model.twoLevelBytes(), 2u * 4096u + 101u * 8u);
}

TEST(LinearPageTableTest, SparseIsWorseThanDense)
{
    LinearPageTableModel sparse(8);
    for (int i = 0; i < 10; ++i)
        sparse.addRange(Vpn(static_cast<u64>(i) * 100000), 16);
    EXPECT_GT(sparse.flatBytes(), 100u * sparse.denseBytes());
}

TEST(LinearPageTableTest, MappedPagesDeduplicates)
{
    LinearPageTableModel model;
    model.addRange(Vpn(5), 4);
    model.addRange(Vpn(7), 4); // overlaps two pages
    EXPECT_EQ(model.mappedPages(), 6u);
}
