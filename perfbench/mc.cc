/**
 * @file
 * The `mc-storm` workload: core::mc::McSystem on the shootdown-storm
 * configuration, one seeded storm per model, on one thread. The PLB
 * storm uses scale::clusteredStormConfig at 64 cores (8 VPN-range banks
 * behind the L2 range directory); the other models run
 * scale::stormConfig with their own preset.
 *
 * It is the only workload that exercises multi-core scheduling, IPI
 * delivery and coalescing, and the clustered PLB's directory. Building
 * each McSystem is set-up, paid outside the timed phase.
 */

#include <optional>
#include <sstream>

#include "bench.hh"
#include "core/mc/mc_system.hh"
#include "scale/storm.hh"

namespace perfbench
{

using namespace sasos;

namespace
{

constexpr unsigned kCores = 64;
/** The page-group storm's host cost grows with about the 2.3rd power
 * of the core count (about 400 refs/s at 64 cores on a 4-core x86
 * host, so one storm would take 20 s); at 16 cores it still runs every
 * broadcast path, in a fraction of a second. */
constexpr unsigned kPageGroupCores = 16;
constexpr u64 kRefsPerCore = 60;
constexpr unsigned kClusters = 8;
constexpr u64 kCoalesceWindow = 4;

core::mc::McConfig
stormFor(core::ModelKind kind, u64 seed)
{
    core::mc::McConfig config;
    if (kind == core::ModelKind::Plb) {
        config = scale::clusteredStormConfig(kCores, kRefsPerCore, seed,
                                             kClusters);
    } else {
        config = scale::stormConfig(
            kind == core::ModelKind::PageGroup ? kPageGroupCores : kCores,
            kRefsPerCore, seed);
        core::SystemConfig system = core::SystemConfig::forModel(kind);
        system.seed = config.system.seed;
        config.system = system;
    }
    config.coalesceWindow = kCoalesceWindow;
    return config;
}

class McBench final : public Workload
{
  public:
    McBench(u64 seed, Report &report)
        : report_(report), seed_(deriveSeed(seed, 0))
    {
        for (core::ModelKind kind : models())
            configs_.push_back(stormFor(kind, seed_));
    }

    Shape
    shape() const override
    {
        Shape s;
        std::vector<core::SystemConfig> configs;
        for (const core::mc::McConfig &config : configs_)
            configs.push_back(config.system);
        s.configSignature = configSignature(
            "mc-storm cores=" + std::to_string(kCores) +
                " page-group-cores=" + std::to_string(kPageGroupCores) +
                " refs=" + std::to_string(kRefsPerCore) +
                " coalesce=" + std::to_string(kCoalesceWindow),
            configs);
        return s;
    }

    Round
    round(Spans *spans) override
    {
        Round round;
        const Scope whole(spans, spans ? spans->intern("mc.round") : 0);
        for (std::size_t m = 0; m < configs_.size(); ++m) {
            const std::string model = modelName(models()[m]);
            Clock::time_point start = Clock::now();
            std::optional<core::mc::McSystem> sys;
            {
                const Scope span(spans, spans ? spans->intern("mc.ctor") : 0,
                                 whole.id());
                sys.emplace(configs_[m]);
            }
            round.setupSeconds += secondsSince(start);
            start = Clock::now();
            core::mc::McResult result;
            {
                const Scope span(
                    spans, spans ? spans->intern("mc.run." + model) : 0,
                    whole.id());
                result = sys->run();
            }
            ModelTime &time = round.models[model];
            time.seconds = secondsSince(start);
            time.refs = result.completed + result.failed;
            const std::string label =
                "mc." + model + "." + std::to_string(seed_);
            std::ostringstream dump;
            sys->dumpStats(dump);
            if (results_.size() < configs_.size())
                results_.push_back(result);
            report_.check(result.invariantViolations == 0 &&
                              result.hwViolations == 0 &&
                              report_.repeats(label, dump.str()),
                          label + ": invariant violation or repeated dump "
                                  "differs " +
                              result.firstViolation);
        }
        return round;
    }

    void
    layerMetrics(const LayerTimes &times) override
    {
        core::mc::McResult total;
        double run_ns = 0.0;
        for (core::ModelKind kind : models())
            run_ns += layerTime(times, "mc.run." + modelName(kind)).selfNs;
        for (const core::mc::McResult &r : results_) {
            total.slots += r.slots;
            total.kernelOps += r.kernelOps;
            total.shootdowns += r.shootdowns;
            total.acks += r.acks;
            total.coalescedAcks += r.coalescedAcks;
            total.staleWindowRefs += r.staleWindowRefs;
        }
        report_.metric("mc.ns_per_slot",
                       run_ns / static_cast<double>(total.slots), "ns");
        report_.metric("mc.ctor_ms", layerTime(times, "mc.ctor").medianMs(),
                       "ms");
        report_.metric("mc.slots", static_cast<double>(total.slots),
                       "count");
        report_.metric("mc.kernel_ops", static_cast<double>(total.kernelOps),
                       "count");
        report_.metric("mc.shootdowns",
                       static_cast<double>(total.shootdowns), "count");
        report_.metric("mc.acks", static_cast<double>(total.acks), "count");
        report_.metric("mc.coalesced_acks",
                       static_cast<double>(total.coalescedAcks), "count");
        report_.metric("mc.stale_window_refs",
                       static_cast<double>(total.staleWindowRefs), "count");
        const std::vector<std::string> dumps = report_.references("mc.");
        u64 skips = 0;
        u64 scans = 0;
        for (const std::string &dump : dumps) {
            skips += dumpSum(dump, ".dirBankSkips");
            scans += dumpSum(dump, ".dirBankScans");
        }
        report_.metric("hw.cluster_dir_skip_ratio",
                       static_cast<double>(skips) /
                           static_cast<double>(skips + scans),
                       "share");
        addKernelCounts(report_, dumps);
    }

  private:
    Report &report_;
    u64 seed_;
    /** One storm per model, in models() order. */
    std::vector<core::mc::McConfig> configs_;
    /** First round's tallies, per storm. */
    std::vector<core::mc::McResult> results_;
};

} // namespace

std::unique_ptr<Workload>
makeMc(u64 seed, Report &report)
{
    return std::make_unique<McBench>(seed, report);
}

} // namespace perfbench
