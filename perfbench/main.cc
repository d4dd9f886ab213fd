/**
 * @file
 * Host-throughput benchmark: the command-line entry point.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>] [--spans-out <path>] [--corrupt-dump 1]
 *
 * Untraced (--trace 0): builds the workload's inputs from the seed,
 * then replays them in rounds for --seconds and reports the median
 * references per host second over the rounds, overall and per model,
 * the fastest of many builds of the inputs (set-up time) and peak
 * RSS.
 *
 * Traced (--trace 1): the layer profile. It runs the standalone probes
 * and one traced round of every workload, so every per-layer metric
 * is measured in one run, then alternates untraced and traced rounds
 * of the named workload for --seconds to report trace.overhead_share.
 * Spans stay in memory and are written to --spans-out at exit.
 *
 * Every simulated stats dump is checked (repeated rounds, per-call vs
 * batched, farmed vs in-process, four models agreeing) and its digest
 * printed; the last stdout line is the JSON result object.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

std::unique_ptr<Workload> makeSweep(u64 seed, Report &report);
std::unique_ptr<Workload> makeScenario(u64 seed, Report &report,
                                       Spans *spans);
std::unique_ptr<Workload> makeFarm(u64 seed, Report &report);
std::unique_ptr<Workload> makeMc(u64 seed, Report &report);

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep", "scenario-churn", "farm-checkpoint", "mc-storm"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, u64 seed, Report &report,
             Spans *spans)
{
    if (name == "sweep")
        return makeSweep(seed, report);
    if (name == "scenario-churn")
        return makeScenario(seed, report, spans);
    if (name == "farm-checkpoint")
        return makeFarm(seed, report);
    if (name == "mc-storm")
        return makeMc(seed, report);
    return nullptr;
}

namespace
{

/** Set-up is timed one build at a time, in batches of builds lasting
 * at least kSetupBatchSeconds: kSetupBatches before the rounds and one
 * after every round, so the builds span the whole run. setup_s is the
 * fastest build. Some set-ups take microseconds, and on a shared host
 * the same build's time swings by up to 2x within one process, so the
 * median build follows the host; the fastest build repeats. */
constexpr int kSetupBatches = 5;
constexpr double kSetupBatchSeconds = 0.02;
constexpr int kMaxBuildsPerBatch = 1000;
/** Fewest rounds a run measures, however short --seconds is. */
constexpr std::size_t kMinRounds = 3;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string spansOut;
    bool corruptDump = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        std::cerr << (i ? "|" : "") << workloadNames()[i];
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>] [--spans-out <path>] "
                 "[--corrupt-dump 1]\n";
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != 0)
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseU64(flag, value);
        else if (flag == "--seconds")
            args.seconds = static_cast<double>(parseU64(flag, value));
        else if (flag == "--trace")
            args.trace = parseU64(flag, value) != 0;
        else if (flag == "--commit")
            args.commit = value;
        else if (flag == "--spans-out")
            args.spansOut = value;
        else if (flag == "--corrupt-dump")
            args.corruptDump = parseU64(flag, value) != 0;
        else
            usage("unknown flag " + flag);
    }
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == args.workload;
    if (!known)
        usage("unknown workload '" + args.workload + "'");
    return args;
}

/** Build the workload's inputs one at a time for at least
 * kSetupBatchSeconds, lowering `fastest` to the quickest build;
 * teardowns are not timed. */
void
setupBatch(const Args &args, Report &report, double &fastest)
{
    double seconds = 0.0;
    for (int builds = 0;
         seconds < kSetupBatchSeconds && builds < kMaxBuildsPerBatch;
         ++builds) {
        const Clock::time_point start = Clock::now();
        const std::unique_ptr<Workload> built =
            makeWorkload(args.workload, args.seed, report, nullptr);
        const double build = secondsSince(start);
        seconds += build;
        fastest = std::min(fastest, build);
    }
}

/** Untraced run: the end-to-end metrics. */
Shape
timedRun(const Args &args, Report &report)
{
    double setup = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kSetupBatches; ++i)
        setupBatch(args, report, setup);
    const std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed, report, nullptr);
    std::vector<double> total;
    double round_setup = std::numeric_limits<double>::infinity();
    std::map<std::string, std::vector<double>> per_model;
    const Clock::time_point start = Clock::now();
    while (total.size() < kMinRounds || secondsSince(start) < args.seconds) {
        const Round round = workload->round(nullptr);
        total.push_back(round.refsPerSecond());
        round_setup = std::min(round_setup, round.setupSeconds);
        for (const auto &[model, time] : round.models)
            per_model[model].push_back(static_cast<double>(time.refs) /
                                       time.seconds);
        setupBatch(args, report, setup);
    }
    const double measured = secondsSince(start);
    workload->finish();
    std::cerr << "perfbench: " << args.workload << ": " << total.size()
              << " rounds in " << measured << " s\n";

    report.metric("refs_per_s", median(total), "1/s");
    for (sasos::core::ModelKind kind : models())
        report.metric("refs_per_s." + modelName(kind),
                      median(per_model.at(modelName(kind))), "1/s");
    report.metric("setup_s", setup + round_setup, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    return workload->shape();
}

/** Traced run: every per-layer metric, plus the named workload's
 * tracing overhead. */
Shape
tracedRun(const Args &args, Report &report)
{
    const Clock::time_point start = Clock::now();
    Spans spans;
    std::uint32_t run = 0;
    profileProbes(args.seed, spans, run++, report);
    Shape shape;
    for (const std::string &name : workloadNames()) {
        spans.setRun(run);
        std::unique_ptr<Workload> workload =
            makeWorkload(name, args.seed, report, &spans);
        if (name == args.workload)
            shape = workload->shape();
        workload->round(&spans);
        workload->finish();
        workload->layerMetrics(layerTimes(spans, run));
        ++run;
    }
    // Both counts gather over scenario-churn and mc-storm.
    report.metric("hw.purge_yield",
                  report.value("hw.purged_entries") /
                      report.value("hw.purge_scans"),
                  "share");

    // Overhead pairs run on a fresh instance; their spans are
    // dropped, only their throughput is kept.
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed, report, nullptr);
    std::vector<double> plain;
    std::vector<double> traced;
    for (std::size_t pair = 0; pair < 2 || secondsSince(start) < args.seconds;
         ++pair) {
        // Alternate which side runs first, so drift cancels.
        for (int side = 0; side < 2; ++side) {
            if ((side == 0) == (pair % 2 == 0)) {
                plain.push_back(workload->round(nullptr).refsPerSecond());
            } else {
                Spans dropped;
                traced.push_back(workload->round(&dropped).refsPerSecond());
            }
        }
    }
    workload->finish();
    report.metric("trace.overhead_share",
                  1.0 - median(traced) / median(plain), "share");

    if (!args.spansOut.empty())
        spans.write(args.spansOut);
    return shape;
}

std::string
stampJson(const Args &args, const Shape &shape)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"commit\": \"%s\", \"build_type\": \"%s\", "
        "\"nproc\": %u, \"threads\": %u, \"workers\": %u, "
        "\"config_signature\": \"%s\"}",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace ? 1 : 0, args.commit.c_str(),
        PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
        shape.threads, shape.workers, shape.configSignature.c_str());
    return buf;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    Report report;
    report.corruptOneDump = args.corruptDump;
    const Shape shape =
        args.trace ? tracedRun(args, report) : timedRun(args, report);
    report.print(stampJson(args, shape));
    return 0;
}
