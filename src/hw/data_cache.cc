#include "hw/data_cache.hh"

#include <bit>

namespace sasos::hw
{

const char *
toString(CacheOrg org)
{
    switch (org) {
      case CacheOrg::Vivt:
        return "vivt";
      case CacheOrg::Vipt:
        return "vipt";
      case CacheOrg::Pipt:
        return "pipt";
    }
    return "?";
}

DataCache::DataCache(const DataCacheConfig &config, stats::Group *parent,
                     const std::string &name)
    : statsGroup(parent, name),
      accesses(&statsGroup, "accesses", "lookups performed"),
      hits(&statsGroup, "hits", "lookups that hit"),
      misses(&statsGroup, "misses", "lookups that missed"),
      fills(&statsGroup, "fills", "lines installed"),
      writebacks(&statsGroup, "writebacks", "dirty lines written back"),
      flushedLines(&statsGroup, "flushedLines",
                   "valid lines removed by flush operations"),
      injectedEvictions(&statsGroup, "injectedEvictions",
                        "lines evicted by fault injection"),
      hitRate(&statsGroup, "hitRate", "fraction of accesses that hit",
              [this] {
                  return accesses.value()
                             ? static_cast<double>(hits.value()) /
                                   accesses.value()
                             : 0.0;
              }),
      config_(config),
      lineShift_(std::countr_zero(config.lineBytes)),
      setMask_(config.sets() - 1),
      array_(config.sets(), config.ways, config.policy, config.seed)
{
    SASOS_ASSERT(std::has_single_bit(config.lineBytes), "line size not 2^k");
    SASOS_ASSERT(std::has_single_bit(config.sets()), "set count not 2^k");
    SASOS_ASSERT(config.sizeBytes % (config.lineBytes * config.ways) == 0,
                 "cache size not divisible by way size");
}

std::size_t
DataCache::indexOf(u64 vline, u64 pline) const
{
    const u64 line = config_.org == CacheOrg::Pipt ? pline : vline;
    return static_cast<std::size_t>(line & setMask_);
}

u64
DataCache::tagOf(u64 vline, u64 pline) const
{
    return config_.org == CacheOrg::Vivt ? vline : pline;
}

bool
DataCache::access(vm::VAddr va, std::optional<vm::PAddr> pa, bool store)
{
    ++accesses;
    const u64 vline = vlineOf(va);
    u64 pline = 0;
    if (config_.org != CacheOrg::Vivt) {
        SASOS_ASSERT(pa.has_value(), toString(config_.org),
                     " lookup needs a physical address");
        pline = plineOf(*pa);
    }
    LineState *line = array_.lookup(indexOf(vline, pline),
                                    tagOf(vline, pline));
    if (line == nullptr) {
        ++misses;
        return false;
    }
    if (store)
        line->dirty = true;
    ++hits;
    return true;
}

std::optional<CacheVictim>
DataCache::fill(vm::VAddr va, vm::PAddr pa, bool store)
{
    ++fills;
    const u64 vline = vlineOf(va);
    const u64 pline = plineOf(pa);
    LineState state;
    state.dirty = store;
    state.vline = vline;
    state.pline = pline;
    auto victim = array_.insert(indexOf(vline, pline), tagOf(vline, pline),
                                state);
    if (!victim)
        return std::nullopt;
    CacheVictim out;
    out.vline = victim->payload.vline;
    out.pline = victim->payload.pline;
    out.dirty = victim->payload.dirty;
    if (out.dirty)
        ++writebacks;
    return out;
}

FlushResult
DataCache::flushPage(vm::Vpn vpn, std::optional<vm::Pfn> pfn, int page_shift)
{
    FlushResult result;
    const u64 lines_per_page = (u64{1} << page_shift) >> lineShift_;
    const u64 first_vline = (vpn.number() << page_shift) >> lineShift_;
    u64 first_pline = 0;
    if (config_.org == CacheOrg::Pipt) {
        SASOS_ASSERT(pfn.has_value(),
                     "pipt flush needs the physical page");
        first_pline = (pfn->number() << page_shift) >> lineShift_;
    }
    for (u64 i = 0; i < lines_per_page; ++i) {
        ++result.lineAccesses;
        const u64 vline = first_vline + i;
        const u64 pline = first_pline + i;
        const std::size_t set = indexOf(vline, pline);
        // Match on the stored virtual line so Vipt (physical tags)
        // still flushes by virtual page; Pipt matches physical lines.
        bool removed_dirty = false;
        bool removed = false;
        if (config_.org == CacheOrg::Pipt) {
            LineState *line = array_.probe(set, pline);
            if (line != nullptr) {
                removed = true;
                removed_dirty = line->dirty;
                array_.invalidate(set, pline);
            }
        } else {
            const u64 tag = tagOf(vline, pline);
            if (config_.org == CacheOrg::Vivt) {
                LineState *line = array_.probe(set, tag);
                if (line != nullptr) {
                    removed = true;
                    removed_dirty = line->dirty;
                    array_.invalidate(set, tag);
                }
            } else {
                // Vipt: tags are physical; scan the set for the vline.
                u64 found_tag = 0;
                bool found = false;
                bool found_dirty = false;
                array_.forEachInSet(set, [&](u64 tag_key, LineState &state) {
                    if (state.vline == vline) {
                        found = true;
                        found_tag = tag_key;
                        found_dirty = state.dirty;
                    }
                });
                if (found) {
                    removed = true;
                    removed_dirty = found_dirty;
                    array_.invalidate(set, found_tag);
                }
            }
        }
        if (removed) {
            ++result.invalidated;
            ++flushedLines;
            if (removed_dirty) {
                ++result.writebacks;
                ++writebacks;
            }
        }
    }
    return result;
}

FlushResult
DataCache::flushAll()
{
    FlushResult result;
    result.lineAccesses = config_.lines();
    array_.forEach([&](u64, LineState &state) {
        ++result.invalidated;
        ++flushedLines;
        if (state.dirty) {
            ++result.writebacks;
            ++writebacks;
        }
    });
    array_.invalidateAll();
    return result;
}

std::optional<CacheVictim>
DataCache::evictRandomLine(Rng &rng)
{
    const std::size_t live = array_.occupancy();
    if (live == 0)
        return std::nullopt;
    auto victim = array_.invalidateNth(
        static_cast<std::size_t>(rng.nextBelow(live)));
    if (!victim)
        return std::nullopt;
    ++injectedEvictions;
    CacheVictim out;
    out.vline = victim->payload.vline;
    out.pline = victim->payload.pline;
    out.dirty = victim->payload.dirty;
    if (out.dirty)
        ++writebacks;
    return out;
}

bool
DataCache::containsVirtualLine(u64 vline) const
{
    bool found = false;
    array_.forEach([&](u64, const LineState &state) {
        if (state.vline == vline)
            found = true;
    });
    return found;
}

void
DataCache::save(snap::SnapWriter &w) const
{
    w.putTag("dcache");
    array_.save(
        w,
        [](snap::SnapWriter &out, const u64 &tag) { out.put64(tag); },
        [](snap::SnapWriter &out, const LineState &line) {
            out.putBool(line.dirty);
            out.put64(line.vline);
            out.put64(line.pline);
        });
}

void
DataCache::load(snap::SnapReader &r)
{
    r.expectTag("dcache");
    array_.load(
        r,
        [](snap::SnapReader &in) { return in.get64(); },
        [](snap::SnapReader &in) {
            LineState line;
            line.dirty = in.getBool();
            line.vline = in.get64();
            line.pline = in.get64();
            return line;
        });
}

} // namespace sasos::hw
