#include "vm/phys_mem.hh"

#include "snap/snapio.hh"

#include "sim/logging.hh"

namespace sasos::vm
{

FrameAllocator::FrameAllocator(u64 frame_count) : capacity_(frame_count)
{
    SASOS_ASSERT(frame_count > 0, "no physical memory");
}

std::optional<Pfn>
FrameAllocator::allocate()
{
    u64 frame;
    if (!freed_.empty()) {
        frame = freed_.back();
        freed_.pop_back();
    } else if (refCounts_.size() < capacity_) {
        frame = refCounts_.size();
        refCounts_.push_back(0);
    } else {
        return std::nullopt;
    }
    refCounts_[frame] = 1;
    ++inUse_;
    return Pfn(frame);
}

void
FrameAllocator::free(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "freeing foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "double free of frame ", frame);
    SASOS_ASSERT(refCounts_[frame] == 1, "freeing shared frame ", frame,
                 " with ", refCounts_[frame], " references");
    unref(pfn);
}

void
FrameAllocator::ref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "ref of foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "ref of unallocated frame ", frame);
    ++refCounts_[frame];
}

void
FrameAllocator::unref(Pfn pfn)
{
    const u64 frame = pfn.number();
    SASOS_ASSERT(frame < capacity_, "unref of foreign frame ", frame);
    SASOS_ASSERT(isAllocated(pfn), "unref of unallocated frame ", frame);
    if (--refCounts_[frame] > 0)
        return;
    freed_.push_back(frame);
    --inUse_;
}

u32
FrameAllocator::refCount(Pfn pfn) const
{
    const u64 frame = pfn.number();
    return frame < refCounts_.size() ? refCounts_[frame] : 0;
}

bool
FrameAllocator::isAllocated(Pfn pfn) const
{
    return refCount(pfn) > 0;
}

void
FrameAllocator::save(snap::SnapWriter &w) const
{
    w.putTag("frames");
    w.put64(capacity_);
    w.put64(refCounts_.size());
    for (u32 refs : refCounts_)
        w.put32(refs);
    w.put64(freed_.size());
    for (u64 frame : freed_)
        w.put64(frame);
}

void
FrameAllocator::load(snap::SnapReader &r)
{
    r.expectTag("frames");
    const u64 capacity = r.get64();
    if (capacity != capacity_)
        SASOS_FATAL("corrupt snapshot: ", capacity,
                    " physical frames, this configuration has ",
                    capacity_);
    if (r.version() < 4) {
        loadV3(r);
        return;
    }
    const u64 mark = r.get64();
    if (mark > capacity)
        SASOS_FATAL("corrupt snapshot: frame high-water mark ", mark,
                    " beyond capacity ", capacity);
    std::vector<u32> counts(mark);
    u64 in_use = 0;
    for (u32 &refs : counts) {
        refs = r.get32();
        in_use += refs > 0 ? 1 : 0;
    }
    const u64 freed_count = r.getCount(8);
    if (freed_count != mark - in_use)
        SASOS_FATAL("corrupt snapshot: freed stack carries ", freed_count,
                    " frames, but ", mark - in_use,
                    " frames below the high-water mark are unreferenced");
    std::vector<u64> freed(freed_count);
    std::vector<bool> seen(mark, false);
    for (u64 &frame : freed) {
        frame = r.get64();
        if (frame >= mark)
            SASOS_FATAL("corrupt snapshot: freed frame ", frame,
                        " at or above the high-water mark ", mark);
        if (counts[frame] != 0)
            SASOS_FATAL("corrupt snapshot: freed frame ", frame,
                        " still holds ", counts[frame], " references");
        if (seen[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " on the freed stack twice");
        seen[frame] = true;
    }
    refCounts_ = std::move(counts);
    freed_ = std::move(freed);
    inUse_ = in_use;
}

void
FrameAllocator::loadV3(snap::SnapReader &r)
{
    // v3 wrote an allocation bitmap, the in-use count, the whole free
    // list verbatim and the refcounts of the allocated frames. This
    // allocator only ever produced a list of the form [capacity-1 ...
    // mark] (the descending run of never-used frames) followed by
    // pushed frees below the mark; anything else is corrupt.
    std::vector<bool> allocated(capacity_, false);
    u64 marked = 0;
    u8 bits = 0;
    for (u64 i = 0; i < capacity_; ++i) {
        if (i % 8 == 0)
            bits = r.get8();
        allocated[i] = (bits >> (i % 8)) & 1;
        marked += allocated[i] ? 1 : 0;
    }
    const u64 in_use = r.get64();
    if (in_use != marked)
        SASOS_FATAL("corrupt snapshot: frame allocator claims ", in_use,
                    " frames in use but marks ", marked);
    const u64 free_count = r.getCount(8);
    if (free_count != capacity_ - in_use)
        SASOS_FATAL("corrupt snapshot: free list carries ", free_count,
                    " frames, expected ", capacity_ - in_use);
    u64 mark = capacity_;
    bool in_run = true;
    std::vector<u64> freed;
    std::vector<bool> seen(capacity_, false);
    for (u64 i = 0; i < free_count; ++i) {
        const u64 frame = r.get64();
        if (frame >= capacity_)
            SASOS_FATAL("corrupt snapshot: free frame ", frame,
                        " beyond capacity ", capacity_);
        if (in_run && frame == mark - 1) {
            --mark;
        } else {
            in_run = false;
            if (frame >= mark)
                SASOS_FATAL("corrupt snapshot: v3 free list is not a "
                            "descending run from the top frame followed "
                            "by frames below it (frame ",
                            frame, " after the run ended at ", mark, ")");
            freed.push_back(frame);
        }
        if (allocated[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " both allocated and free");
        if (seen[frame])
            SASOS_FATAL("corrupt snapshot: frame ", frame,
                        " on the free list twice");
        seen[frame] = true;
    }
    // Every frame at or above the mark is in the run, so the allocated
    // frames all lie below it.
    std::vector<u32> counts(mark, 0);
    for (u64 i = 0; i < capacity_; ++i) {
        if (!allocated[i])
            continue;
        const u32 refs = r.get32();
        if (refs == 0)
            SASOS_FATAL("corrupt snapshot: allocated frame ", i,
                        " with zero references");
        counts[i] = refs;
    }
    refCounts_ = std::move(counts);
    freed_ = std::move(freed);
    inUse_ = in_use;
}

} // namespace sasos::vm
