/**
 * @file
 * Shared pieces of the host-throughput benchmark: the run report
 * (checked operations, digests, metrics), the in-memory span log used
 * by traced runs, and the workload entry points.
 *
 * The benchmark only calls the simulator's public API. Every span is
 * opened and closed here, around calls into a layer; nothing inside
 * src/ is instrumented, and event tracing and fault injection stay
 * off so the batched reference path is the one measured.
 */

#ifndef SASOS_PERFBENCH_BENCH_HH
#define SASOS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "farm/campaign.hh"
#include "sim/types.hh"

namespace perfbench
{

using sasos::u64;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The four protection models, in report order. */
const std::vector<sasos::core::ModelKind> &models();
/** Metric-name label of a model ("plb", "page-group", ...). */
std::string modelName(sasos::core::ModelKind kind);

/** FNV-1a of a byte string, as 16 hex digits. */
std::string digestOf(const std::string &bytes);

/** Value of `key` in a stats dump ("<key> <value> # ..." lines); 0
 * when the key is absent. */
u64 dumpValue(const std::string &dump, const std::string &key);

/** Sum of every scalar in a stats dump whose key ends in `suffix`. */
u64 dumpSum(const std::string &dump, const std::string &suffix);

/** One sweep campaign per model, in models() order: the named
 * farm::standardStreams() x `seeds` derived seeds, cold cells of
 * `refs` references over a `pages`-page heap. */
std::vector<sasos::farm::Campaign>
campaignsPerModel(u64 seed, const std::vector<std::string> &streams,
                  u64 seeds, u64 pages, u64 refs);

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** Derive the i-th independent seed from the run seed. */
u64 deriveSeed(u64 seed, u64 i);

/** What one benchmark run did: checked operations, digests of every
 * simulated stats dump, and metrics in print order. */
class Report
{
  public:
    /** Count one benchmark operation; a false `ok` is a failure and
     * `what` names it on stderr. */
    void check(bool ok, const std::string &what);

    /** Record a simulated stats dump under `label`. The first dump of
     * a label is its reference, whose digest is printed; a later one
     * must equal it. @return whether it does (true for the first). */
    bool repeats(const std::string &label, const std::string &dump);

    /** The reference dump of `label`; empty when none was recorded. */
    const std::string &reference(const std::string &label) const;

    /** Reference dumps of every label starting with `prefix`. */
    std::vector<std::string> references(const std::string &prefix) const;

    /** Whether a simulated stats dump equals the expected one. With
     * corruptOneDump set, the first comparison sees a dump with one
     * byte flipped: the self-test that a mismatch is caught. */
    bool matches(const std::string &expected, const std::string &actual);

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Value of a reported metric; 0 when absent. */
    double value(const std::string &name) const;

    /** Add to a count metric, creating it at zero. */
    void addCount(const std::string &name, u64 value);

    /** Lines "stamp ...", "digest ..." and the final result object. */
    void print(const std::string &stamp_json) const;

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

    bool corruptOneDump = false;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    u64 attempted_ = 0;
    u64 failed_ = 0;
    /** Reference dumps by label, and the labels in first-seen order. */
    std::map<std::string, std::string> references_;
    std::vector<std::string> labels_;
    std::vector<Metric> metrics_;
};

/** Add the kernel and purge counts of some stats dumps to the report
 * (os.cow_faults, ..., hw.purge_scans, hw.purged_entries). Purges are
 * counted only on the structures that count their scans, the PLB and
 * its banks, so the yield compares like with like. */
void addKernelCounts(Report &report, const std::vector<std::string> &dumps);

/**
 * Spans recorded from the benchmark's own files: name, start, end,
 * parent span and run id (the round that produced it). Names are
 * interned up front so recording on the hot path is two clock reads
 * and one append. Safe to record from several threads.
 */
class Spans
{
  public:
    struct Span
    {
        u64 id = 0;
        u64 parent = 0;
        std::uint32_t name = 0;
        std::uint32_t run = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;

        std::int64_t duration() const { return endNs - startNs; }
    };

    Spans();

    /** Id of a span name, interning it on first use. */
    std::uint32_t intern(const std::string &name);
    std::string nameOf(std::uint32_t id) const;

    /** Round stamped on spans opened from now on. */
    void setRun(std::uint32_t run) { run_ = run; }

    /** Open a span; returns its id (never 0, the root parent). */
    u64 begin(std::uint32_t name, u64 parent);
    void end(u64 id);

    /** Every span recorded so far, ordered by id (id i at i - 1).
     * Call once no span is open. */
    std::vector<Span> spans() const;

    /** Self time of each span in spans(): its duration minus the
     * union of its children's intervals, which may overlap when the
     * children ran on several threads. */
    static std::vector<std::int64_t> selfTimes(const std::vector<Span> &all);

    /** Write all spans as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    std::int64_t now() const;

    mutable std::mutex mutex_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
    std::uint32_t run_ = 0;
    Clock::time_point epoch_;
};

/** A span around one scope; does nothing when `spans` is null, so the
 * untraced path runs the same code without recording. */
class Scope
{
  public:
    Scope(Spans *spans, std::uint32_t name, u64 parent = 0)
        : spans_(spans), id_(spans ? spans->begin(name, parent) : 0)
    {
    }
    ~Scope()
    {
        if (spans_)
            spans_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    u64 id() const { return id_; }

  private:
    Spans *spans_;
    u64 id_;
};

/** Host time of the spans of one name within one round. */
struct LayerTime
{
    u64 count = 0;
    /** Sum of the spans' self times. */
    double selfNs = 0.0;
    /** Every span's full duration, in recording order. */
    std::vector<double> durationsNs;

    double totalNs() const;
    /** Median full duration in milliseconds (0 when no span). */
    double medianMs() const;
};

/** The spans of round `run`, aggregated by name. */
using LayerTimes = std::map<std::string, LayerTime>;
LayerTimes layerTimes(const Spans &spans, std::uint32_t run);
/** The entry for `name`; an empty one when no span had that name. */
const LayerTime &layerTime(const LayerTimes &times, const std::string &name);

/** One model's share of a round's timed phase. */
struct ModelTime
{
    u64 refs = 0;
    double seconds = 0.0;
};

/** What one round of a workload did, in host time. */
struct Round
{
    /** Keyed by model name. */
    std::map<std::string, ModelTime> models;
    /** Set-up paid inside the round but outside its timed phase
     * (McSystem construction). */
    double setupSeconds = 0.0;

    double refsPerSecond() const;
};

/** Shape of a workload, for the result stamp. */
struct Shape
{
    unsigned threads = 1;
    unsigned workers = 0;
    /** Digest of every configuration the workload builds. */
    std::string configSignature;
};

/**
 * A workload. Construction builds its inputs from the seed (the
 * set-up); every round then replays the same inputs, checking the
 * simulated outputs into the report, and the first round's stats
 * dumps are the reference later rounds must repeat exactly.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual Shape shape() const = 0;

    /** Run one round; with `spans`, record a span around each call
     * into a layer. */
    virtual Round round(Spans *spans) = 0;

    /** Checks made after the rounds, outside any timed phase. */
    virtual void finish() {}

    /** Report this workload's per-layer metrics from the spans of its
     * first round, which must have been traced. */
    virtual void layerMetrics(const LayerTimes &times) = 0;
};

/** The workload names, in report order. */
const std::vector<std::string> &workloadNames();

/** Build a workload (null for an unknown name); `spans`, when set,
 * records the set-up. */
std::unique_ptr<Workload> makeWorkload(const std::string &name, u64 seed,
                                       Report &report, Spans *spans);

/** Standalone layer probes (address generation and the hardware
 * structures), reported in every traced run. */
void profileProbes(u64 seed, Spans &spans, std::uint32_t run,
                   Report &report);

/** Digest of a workload's shape text and the snapshot config
 * signature of every machine configuration it builds. */
std::string
configSignature(std::string shape,
                const std::vector<sasos::core::SystemConfig> &configs);

/** Peak resident set of this process and its waited-for children. */
double peakRssMb();

} // namespace perfbench

#endif // SASOS_PERFBENCH_BENCH_HH
