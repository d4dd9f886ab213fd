/**
 * @file
 * The `sweep` workload: farm::SweepRunner runs every protection model
 * over farm::standardStreams() and a few seeds on a two-thread pool,
 * the repository's headline use on the batched System::run path.
 *
 * Cells start cold over a 256-page heap, twice the reach of the
 * 128-entry TLB/PLB, so the uniform and zipf rows are miss-bound in
 * the hardware structures while the sequential and working-set rows
 * are hit-bound on the same-page memo. Each model is its own campaign
 * so its references per second can be timed alone; a System is built
 * per cell inside the timed phase, as every real sweep pays it.
 */

#include <optional>
#include <sstream>

#include "bench.hh"
#include "farm/campaign.hh"

namespace perfbench
{

using namespace sasos;

namespace
{

constexpr unsigned kThreads = 2;
constexpr u64 kSeeds = 2;
constexpr u64 kPages = 256;
constexpr u64 kRefs = 120'000;
/** Cells re-run through the per-call access() path after the rounds. */
constexpr u64 kResampled = 4;

/** Stats-dump keys of a model's protection structure: the PLB, or the
 * 128-entry TLB that carries rights in the other three models. */
std::string
protKey(core::ModelKind kind)
{
    switch (kind) {
      case core::ModelKind::Plb:
        return "system.plbSystem.plb";
      case core::ModelKind::PageGroup:
        return "system.pgSystem.tlb";
      case core::ModelKind::Conventional:
        return "system.convSystem.tlb";
      case core::ModelKind::Pkey:
        return "system.pkeySystem.tlb";
    }
    return "";
}

class SweepBench final : public Workload
{
  public:
    SweepBench(u64 seed, Report &report)
        : seed_(seed), report_(report)
    {
        std::vector<std::string> streams;
        for (const auto &[name, factory] : farm::standardStreams())
            streams.push_back(name);
        campaigns_ = campaignsPerModel(seed, streams, kSeeds, kPages, kRefs);
    }

    Shape
    shape() const override
    {
        Shape s;
        s.threads = kThreads;
        std::vector<core::SystemConfig> configs;
        for (const farm::Campaign &campaign : campaigns_)
            configs.push_back(campaign.cells()[0].config);
        s.configSignature = configSignature(
            "sweep pages=" + std::to_string(kPages) +
                " refs=" + std::to_string(kRefs) +
                " seeds=" + std::to_string(kSeeds),
            configs);
        return s;
    }

    Round
    round(Spans *spans) override
    {
        // The pools are the engine, not inputs: built on first use,
        // outside both the set-up and the timed phase.
        if (!spans && !runner_)
            runner_ = std::make_unique<farm::SweepRunner>(kThreads);
        if (spans && !tracedPool_)
            tracedPool_ = std::make_unique<ThreadPool>(kThreads);
        Round round;
        const Scope whole(spans, spans ? spans->intern("sweep.round") : 0);
        for (std::size_t m = 0; m < campaigns_.size(); ++m) {
            const farm::Campaign &campaign = campaigns_[m];
            const Clock::time_point start = Clock::now();
            const std::vector<farm::CellResult> results =
                spans ? runTraced(campaign, *spans, whole.id())
                      : runner_->run(campaign);
            ModelTime &time = round.models[campaign.cells()[0].model];
            time.seconds = secondsSince(start);
            for (std::size_t i = 0; i < results.size(); ++i) {
                const farm::CellResult &r = results[i];
                time.refs += r.references;
                const std::string what = label(campaign.cells()[i]);
                report_.check(r.completed + r.failed == r.references &&
                                  report_.repeats(what, r.statsDump),
                              what + ": tally or repeated dump differs");
            }
        }
        return round;
    }

    void
    finish() override
    {
        // A seeded sample of cells, re-run reference by reference
        // through System::access(): the batched path must leave the
        // identical stats dump.
        Rng pick(seed_);
        for (u64 k = 0; k < kResampled; ++k) {
            const std::size_t m = k % campaigns_.size();
            const std::size_t i = pick.nextBelow(campaigns_[m].size());
            const farm::SweepCell &cell = campaigns_[m].cells()[i];
            core::System sys(cell.config);
            const vm::VAddr base = farm::setupCell(sys, cell);
            Rng rng(cell.seed);
            const std::unique_ptr<wl::AddressStream> stream =
                cell.makeStream(base, cell.pages, cell.seed);
            for (u64 r = 0; r < cell.references; ++r)
                sys.access(stream->next(rng), cell.type);
            std::ostringstream dump;
            sys.dumpStats(dump);
            report_.check(
                report_.matches(report_.reference(label(cell)), dump.str()),
                label(cell) + ": per-call access() dump differs from the "
                              "batched run");
        }
    }

    void
    layerMetrics(const LayerTimes &times) override
    {
        double campaign_ns = 0.0;
        for (std::size_t m = 0; m < campaigns_.size(); ++m) {
            const std::string &model = campaigns_[m].cells()[0].model;
            campaign_ns +=
                layerTime(times, "sweep.campaign." + model).totalNs();
            for (const auto &[stream, factory] : farm::standardStreams()) {
                u64 refs = 0;
                for (const farm::SweepCell &cell : campaigns_[m].cells())
                    refs += cell.workload == stream ? cell.references : 0;
                const std::string tail = model + "." + stream;
                report_.metric("core.run_ns_per_ref." + tail,
                               layerTime(times, "core.run." + tail).selfNs /
                                   static_cast<double>(refs),
                               "ns");
            }
        }
        report_.metric("core.system_ctor_ms",
                       layerTime(times, "core.ctor").medianMs(), "ms");
        report_.metric("sim.stats_dump_ms",
                       layerTime(times, "sim.stats_dump").medianMs(), "ms");
        report_.metric("sim.pool_idle_share",
                       1.0 - layerTime(times, "sweep.cell").totalNs() /
                                 (kThreads * campaign_ns),
                       "share");
        for (std::size_t m = 0; m < campaigns_.size(); ++m) {
            const core::ModelKind kind = models()[m];
            const std::string prot = protKey(kind);
            const std::string dcache = prot.substr(0, prot.rfind('.')) +
                                       ".dcache.misses";
            u64 misses = 0;
            u64 evictions = 0;
            u64 dcache_misses = 0;
            for (const farm::SweepCell &cell : campaigns_[m].cells()) {
                const std::string &dump = report_.reference(label(cell));
                misses += dumpValue(dump, prot + ".misses");
                evictions += dumpValue(dump, prot + ".evictions");
                dcache_misses += dumpValue(dump, dcache);
            }
            const std::string prefix = "hw." + modelName(kind) + ".";
            report_.metric(prefix + "prot_misses",
                           static_cast<double>(misses), "count");
            report_.metric(prefix + "prot_evictions",
                           static_cast<double>(evictions), "count");
            report_.metric(prefix + "dcache_misses",
                           static_cast<double>(dcache_misses), "count");
        }
    }

  private:
    static std::string
    label(const farm::SweepCell &cell)
    {
        return "sweep." + cell.model + "." + cell.workload + "." +
               std::to_string(cell.seed);
    }

    /** SweepRunner::run with a span around each cell's construction,
     * references and stats dump; results must be the same. */
    std::vector<farm::CellResult>
    runTraced(const farm::Campaign &campaign, Spans &spans, u64 parent)
    {
        const std::vector<farm::SweepCell> &cells = campaign.cells();
        const std::string &model = cells[0].model;
        const Scope whole(&spans, spans.intern("sweep.campaign." + model),
                          parent);
        const std::uint32_t cell_name = spans.intern("sweep.cell");
        const std::uint32_t ctor_name = spans.intern("core.ctor");
        const std::uint32_t dump_name = spans.intern("sim.stats_dump");
        std::vector<std::uint32_t> run_names;
        for (const farm::SweepCell &cell : cells)
            run_names.push_back(
                spans.intern("core.run." + model + "." + cell.workload));
        std::vector<farm::CellResult> results(cells.size());
        parallelFor(*tracedPool_, cells.size(), [&](u64 i) {
            const farm::SweepCell &cell = cells[i];
            const Scope span(&spans, cell_name, whole.id());
            std::optional<farm::CellExecution> exec;
            {
                const Scope s(&spans, ctor_name, span.id());
                exec.emplace(cell, static_cast<u32>(cell.id) + 1);
            }
            {
                const Scope s(&spans, run_names[i], span.id());
                exec->step(cell.references);
            }
            const Scope s(&spans, dump_name, span.id());
            results[i] = exec->finish();
        });
        return results;
    }

    u64 seed_;
    Report &report_;
    std::vector<farm::Campaign> campaigns_;
    std::unique_ptr<farm::SweepRunner> runner_;
    std::unique_ptr<ThreadPool> tracedPool_;
};

} // namespace

std::unique_ptr<Workload>
makeSweep(u64 seed, Report &report)
{
    return std::make_unique<SweepBench>(seed, report);
}

} // namespace perfbench
