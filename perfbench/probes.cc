/**
 * @file
 * Standalone layer probes for traced runs: each sweep stream drawn
 * alone (address generation, `wl`), and the uniform and working-set
 * streams replayed through one hardware structure at a time with a
 * model's geometry (`hw`): lookup, then insert or fill on a miss.
 */

#include <algorithm>
#include <bit>
#include <sstream>

#include "bench.hh"
#include "core/system.hh"
#include "farm/campaign.hh"
#include "hw/data_cache.hh"
#include "hw/plb.hh"
#include "hw/tlb.hh"

namespace perfbench
{

using namespace sasos;

namespace
{

constexpr u64 kPages = 256;
constexpr u64 kRefs = 200'000;
constexpr hw::DomainId kDomain = 1;

/** Replay `vas` through a structure, timing it under `name`; the
 * structure's stats must account for every reference. */
template <typename Probe>
void
replay(const std::string &name, const std::vector<vm::VAddr> &vas,
       Spans &spans, Report &report, Probe probe)
{
    stats::Group group("probe");
    const auto structure = probe.make(&group);
    {
        const Scope s(&spans, spans.intern(name));
        for (const vm::VAddr va : vas)
            probe.access(*structure, va);
    }
    const u64 lookups = probe.lookups(*structure);
    std::ostringstream dump;
    group.dump(dump);
    report.check(lookups == vas.size() && report.repeats(name, dump.str()),
                 name + ": structure did not count every lookup");
}

struct TlbProbe
{
    hw::TlbConfig config;

    std::unique_ptr<hw::Tlb>
    make(stats::Group *group) const
    {
        return std::make_unique<hw::Tlb>(config, group);
    }

    void
    access(hw::Tlb &tlb, vm::VAddr va) const
    {
        const vm::Vpn vpn = vm::pageOf(va);
        if (tlb.lookup(vpn, kDomain) == nullptr) {
            hw::TlbEntry entry;
            entry.pfn = vm::Pfn(vpn.number());
            entry.rights = vm::Access::ReadWrite;
            entry.asid = kDomain;
            tlb.insert(vpn, entry);
        }
    }

    u64 lookups(const hw::Tlb &tlb) const { return tlb.lookups.value(); }
};

struct PlbProbe
{
    hw::PlbConfig config;
    /** Size class of a refill, as the PLB model picks it for the heap. */
    int shift = vm::kPageShift;

    std::unique_ptr<hw::Plb>
    make(stats::Group *group) const
    {
        return std::make_unique<hw::Plb>(config, group);
    }

    void
    access(hw::Plb &plb, vm::VAddr va) const
    {
        if (!plb.lookup(kDomain, va))
            plb.insert(kDomain, va, shift, vm::Access::ReadWrite);
    }

    u64 lookups(const hw::Plb &plb) const { return plb.lookups.value(); }
};

struct CacheProbe
{
    hw::DataCacheConfig config;

    std::unique_ptr<hw::DataCache>
    make(stats::Group *group) const
    {
        return std::make_unique<hw::DataCache>(config, group);
    }

    void
    access(hw::DataCache &cache, vm::VAddr va) const
    {
        // Identity translation: the probe times the cache, not a
        // page table.
        const vm::PAddr pa(va.raw());
        if (!cache.access(va, pa, false))
            cache.fill(va, pa, false);
    }

    u64
    lookups(const hw::DataCache &cache) const
    {
        return cache.accesses.value();
    }
};

} // namespace

void
profileProbes(u64 seed, Spans &spans, std::uint32_t run, Report &report)
{
    spans.setRun(run);
    // The heap a sweep cell's streams range over.
    farm::SweepCell cell;
    cell.pages = kPages;
    core::System sys(core::SystemConfig::plbSystem());
    const vm::VAddr base = farm::setupCell(sys, cell);
    const u64 stream_seed = deriveSeed(seed, 0);

    const core::SystemConfig plb = core::SystemConfig::plbSystem();
    const core::SystemConfig conv = core::SystemConfig::conventionalSystem();
    // The PLB model refills a miss with one entry covering the whole
    // segment when the segment is a power-of-two aligned size class
    // (PlbSystem::refillShift); the sweep heap has no per-page state,
    // so that is the only other condition.
    const vm::Segment *heap =
        sys.state().segments.findByPage(vm::pageOf(base));
    const int heap_shift = vm::kPageShift + std::countr_zero(heap->pages);
    const bool super_page =
        plb.superPagePlb && heap->isPowerOfTwoAligned() &&
        std::find(plb.plb.sizeShifts.begin(), plb.plb.sizeShifts.end(),
                  heap_shift) != plb.plb.sizeShifts.end();
    const int plb_shift = super_page ? heap_shift : vm::kPageShift;

    for (const auto &[name, factory] : farm::standardStreams()) {
        std::unique_ptr<wl::AddressStream> stream =
            factory(base, kPages, stream_seed);
        Rng rng(stream_seed);
        u64 sink = 0;
        {
            const Scope s(&spans, spans.intern("wl.next." + name));
            for (u64 i = 0; i < kRefs; ++i)
                sink += stream->next(rng).raw();
        }
        report.check(sink != 0, "wl " + name + ": stream drew nothing");
        if (name != "uniform" && name != "working-set")
            continue;
        stream = factory(base, kPages, stream_seed);
        Rng replay_rng(stream_seed);
        std::vector<vm::VAddr> vas(kRefs);
        for (vm::VAddr &va : vas)
            va = stream->next(replay_rng);
        replay("hw.tlb128.probe." + name, vas, spans, report,
               TlbProbe{conv.tlb});
        replay("hw.tlb512.probe." + name, vas, spans, report,
               TlbProbe{plb.tlb});
        replay("hw.plb.probe." + name, vas, spans, report,
               PlbProbe{plb.plb, plb_shift});
        replay("hw.dcache.probe." + name, vas, spans, report,
               CacheProbe{plb.cache});
    }

    const LayerTimes times = layerTimes(spans, run);
    const auto perRef = [&](const std::string &name) {
        const auto it = times.find(name);
        return it == times.end() ? 0.0 : it->second.selfNs / kRefs;
    };
    for (const auto &[name, factory] : farm::standardStreams())
        report.metric("wl.next_ns." + name, perRef("wl.next." + name), "ns");
    for (const char *structure : {"tlb128", "tlb512", "plb", "dcache"}) {
        for (const char *name : {"uniform", "working-set"}) {
            const std::string probe = std::string("hw.") + structure;
            report.metric(probe + ".probe_ns." + name,
                          perRef(probe + ".probe." + name), "ns");
        }
    }
}

} // namespace perfbench
