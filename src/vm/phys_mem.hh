/**
 * @file
 * Physical frame allocation.
 */

#ifndef SASOS_VM_PHYS_MEM_HH
#define SASOS_VM_PHYS_MEM_HH

#include <optional>
#include <vector>

#include "vm/address.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::vm
{

/**
 * A LIFO allocator over a fixed pool of physical frames.
 *
 * Frames are recycled (unlike virtual addresses) and reference
 * counted: allocate() hands out a frame with one reference, ref()
 * adds a sharer (copy-on-write fork), and unref() drops one,
 * returning the frame to the pool when the last reference goes.
 * free() is the exclusive-owner form: it asserts the caller held the
 * only reference. Double-free and foreign-free are simulator bugs and
 * panic.
 *
 * The state is O(live), not O(capacity): a high-water mark (frames
 * at or above it were never handed out), one refcount per frame
 * below the mark (a frame is allocated iff its count is nonzero) and
 * a stack of freed frames. allocate() pops the stack first and only
 * then takes the mark, so frames come out lowest-first and freed
 * frames are reused most-recent-first. Construction is O(1), and a
 * snapshot costs what the machine has touched, not what it has
 * installed.
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(u64 frame_count);

    /** Allocate a frame with one reference; nullopt when memory is
     * exhausted. */
    std::optional<Pfn> allocate();

    /** Return a frame to the pool; asserts it has exactly one
     * reference (use unref() for possibly-shared frames). */
    void free(Pfn pfn);

    /** Add one reference to an allocated frame (CoW sharing). */
    void ref(Pfn pfn);

    /** Drop one reference; frees the frame when the count hits 0. */
    void unref(Pfn pfn);

    /** References held on a frame (0 when unallocated). */
    u32 refCount(Pfn pfn) const;

    bool isAllocated(Pfn pfn) const;

    u64 capacity() const { return capacity_; }
    u64 inUse() const { return inUse_; }
    u64 available() const { return capacity_ - inUse_; }

    /** Frames at or above this number have never been handed out. */
    u64 highWaterMark() const { return refCounts_.size(); }

    /** @name Snapshot hooks
     * Format v4 writes capacity, mark, the refcounts below the mark
     * and the freed stack; load() cross-checks them and also reads a
     * v3 image's verbatim free list, converting it to this form. */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    void loadV3(snap::SnapReader &r);

    u64 capacity_;
    /** One count per frame below the high-water mark. */
    std::vector<u32> refCounts_;
    /** Freed frames, reused from the back. */
    std::vector<u64> freed_;
    u64 inUse_ = 0;
};

} // namespace sasos::vm

#endif // SASOS_VM_PHYS_MEM_HH
