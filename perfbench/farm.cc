/**
 * @file
 * The `farm-checkpoint` workload: farm::runFarm with two forked
 * workers and a dense checkpoint cadence, over the sequential and
 * working-set streams only, one farm per model.
 *
 * The reference path is cheap on those streams, so fork, pipe,
 * envelope sealing and snapshot serialization dominate and the
 * hardware miss path is bypassed. Chaos kills and migration stay off:
 * their accounting is timing-dependent, and every count reported
 * here must repeat exactly.
 */

#include <optional>

#include "bench.hh"
#include "farm/coordinator.hh"
#include "farm/wire.hh"

namespace perfbench
{

using namespace sasos;

namespace
{

constexpr unsigned kWorkers = 2;
constexpr u64 kSeeds = 2;
constexpr u64 kPages = 256;
constexpr u64 kRefs = 100'000;
constexpr u64 kCheckpointEvery = 25'000;

class FarmBench final : public Workload
{
  public:
    FarmBench(u64 seed, Report &report)
        : report_(report),
          campaigns_(campaignsPerModel(seed, {"sequential", "working-set"},
                                       kSeeds, kPages, kRefs)),
          stats_(campaigns_.size())
    {
        options_.workers = kWorkers;
        options_.checkpointEvery = kCheckpointEvery;
    }

    Shape
    shape() const override
    {
        Shape s;
        s.workers = kWorkers;
        std::vector<core::SystemConfig> configs;
        for (const farm::Campaign &campaign : campaigns_)
            configs.push_back(campaign.cells()[0].config);
        s.configSignature = configSignature(
            "farm-checkpoint pages=" + std::to_string(kPages) +
                " refs=" + std::to_string(kRefs) +
                " every=" + std::to_string(kCheckpointEvery) +
                " seeds=" + std::to_string(kSeeds),
            configs);
        return s;
    }

    Round
    round(Spans *spans) override
    {
        Round round;
        const Scope whole(spans, spans ? spans->intern("farm.round") : 0);
        for (std::size_t m = 0; m < campaigns_.size(); ++m) {
            const farm::Campaign &campaign = campaigns_[m];
            const std::string &model = campaign.cells()[0].model;
            const Clock::time_point start = Clock::now();
            farm::FarmResult result;
            {
                const Scope s(spans,
                              spans ? spans->intern("farm.run." + model) : 0,
                              whole.id());
                result = farm::runFarm(campaign, options_);
            }
            ModelTime &time = round.models[model];
            time.seconds = secondsSince(start);
            const bool ok =
                result.ok && result.results.size() == campaign.size();
            report_.check(ok, "farm " + model + ": " + result.error);
            if (!ok)
                continue;
            if (!stats_[m])
                stats_[m] = result.stats;
            for (std::size_t i = 0; i < result.results.size(); ++i) {
                const farm::CellResult &r = result.results[i];
                time.refs += r.references;
                const std::string what = label(campaign.cells()[i]);
                report_.check(report_.repeats(what, r.statsDump),
                              what + ": repeated dump differs");
            }
            if (spans)
                replayCheckpoint(campaign.cells().back(), *spans,
                                 whole.id());
        }
        return round;
    }

    void
    finish() override
    {
        // The same campaigns in process: farmed dumps must be
        // bit-identical to a SweepRunner run.
        inProcessSeconds_ = 0.0;
        for (const farm::Campaign &campaign : campaigns_) {
            for (const farm::SweepCell &cell : campaign.cells()) {
                const Clock::time_point start = Clock::now();
                const farm::CellResult r = farm::SweepRunner::runCell(cell);
                inProcessSeconds_ += secondsSince(start);
                report_.check(
                    report_.matches(report_.reference(label(cell)),
                                    r.statsDump),
                    label(cell) + ": farmed dump differs from in-process");
            }
        }
    }

    void
    layerMetrics(const LayerTimes &times) override
    {
        double farm_ns = 0.0;
        for (const farm::Campaign &campaign : campaigns_) {
            const std::string &model = campaign.cells()[0].model;
            farm_ns += layerTime(times, "farm.run." + model).totalNs();
        }
        report_.metric("snap.checkpoint_ms",
                       layerTime(times, "snap.checkpoint").medianMs(), "ms");
        report_.metric("snap.resume_ms",
                       layerTime(times, "snap.resume").medianMs(), "ms");
        report_.metric("snap.image_kb", median(imageKb_), "KiB");
        report_.metric("farm.wire_encode_ms",
                       layerTime(times, "farm.wire_encode").medianMs(), "ms");
        report_.metric("farm.wire_decode_ms",
                       layerTime(times, "farm.wire_decode").medianMs(), "ms");
        report_.metric("farm.overhead_share",
                       1.0 - inProcessSeconds_ * 1e9 / (kWorkers * farm_ns),
                       "share");
        farm::FarmStats total;
        for (const std::optional<farm::FarmStats> &s : stats_) {
            if (!s)
                continue;
            total.checkpointImages += s->checkpointImages;
            total.forks += s->forks;
            total.resumes += s->resumes;
            total.rejectedImages += s->rejectedImages;
        }
        report_.metric("farm.images",
                       static_cast<double>(total.checkpointImages), "count");
        report_.metric("farm.forks", static_cast<double>(total.forks),
                       "count");
        report_.metric("farm.resumes", static_cast<double>(total.resumes),
                       "count");
        report_.metric("farm.rejected_images",
                       static_cast<double>(total.rejectedImages), "count");
    }

  private:
    /** A worker's checkpoint hand-off, replayed in process with a span
     * around each step: checkpoint half-way, seal the image into a
     * wire frame, decode it, resume a fresh execution from it and run
     * it to the end. The result must match the farmed dump. */
    void
    replayCheckpoint(const farm::SweepCell &cell, Spans &spans, u64 parent)
    {
        farm::CellExecution source(cell, 1);
        source.step(cell.references / 2);
        farm::Message message;
        message.kind = farm::MsgKind::Image;
        message.cell = cell.id;
        message.refsDone = source.refsDone();
        message.completed = source.completed();
        message.failed = source.failed();
        {
            const Scope s(&spans, spans.intern("snap.checkpoint"), parent);
            message.image = source.checkpoint().bytes;
        }
        imageKb_.push_back(static_cast<double>(message.image.size()) /
                           1024.0);
        std::vector<u8> frame;
        {
            const Scope s(&spans, spans.intern("farm.wire_encode"), parent);
            frame = farm::encodeMessage(message);
        }
        farm::Message decoded;
        {
            const Scope s(&spans, spans.intern("farm.wire_decode"), parent);
            decoded = farm::decodeMessage(frame);
        }
        farm::CellExecution resumed(cell, 1, farm::CellExecution::kForRestore);
        {
            const Scope s(&spans, spans.intern("snap.resume"), parent);
            snap::Snapshot image;
            image.bytes = std::move(decoded.image);
            resumed.resume(image, decoded.refsDone, decoded.completed,
                           decoded.failed);
        }
        resumed.step(resumed.remaining());
        report_.check(report_.matches(report_.reference(label(cell)),
                                      resumed.finish().statsDump),
                      label(cell) +
                          ": resumed checkpoint differs from farmed run");
    }

    static std::string
    label(const farm::SweepCell &cell)
    {
        return "farm." + cell.model + "." + cell.workload + "." +
               std::to_string(cell.seed);
    }

    Report &report_;
    std::vector<farm::Campaign> campaigns_;
    farm::FarmOptions options_;
    /** First round's farm accounting, per model. */
    std::vector<std::optional<farm::FarmStats>> stats_;
    std::vector<double> imageKb_;
    double inProcessSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeFarm(u64 seed, Report &report)
{
    return std::make_unique<FarmBench>(seed, report);
}

} // namespace perfbench
