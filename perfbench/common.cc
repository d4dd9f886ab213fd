#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hh"
#include "core/system.hh"
#include "snap/snapio.hh"

namespace perfbench
{

using namespace sasos;

const std::vector<core::ModelKind> &
models()
{
    static const std::vector<core::ModelKind> kinds = {
        core::ModelKind::Plb, core::ModelKind::PageGroup,
        core::ModelKind::Conventional, core::ModelKind::Pkey};
    return kinds;
}

std::string
modelName(core::ModelKind kind)
{
    return core::toString(kind);
}

std::string
digestOf(const std::string &bytes)
{
    const u64 hash = snap::fnv1a(
        reinterpret_cast<const u8 *>(bytes.data()), bytes.size());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
    return buf;
}

namespace
{

/** Visit every "<key> <integer>" line of a stats dump. */
template <typename Fn>
void
forEachScalar(const std::string &dump, Fn fn)
{
    std::size_t pos = 0;
    while (pos < dump.size()) {
        std::size_t eol = dump.find('\n', pos);
        if (eol == std::string::npos)
            eol = dump.size();
        const std::size_t space = dump.find(' ', pos);
        if (space != std::string::npos && space < eol) {
            const std::string_view key(dump.data() + pos, space - pos);
            const char *value = dump.data() + space + 1;
            char *end = nullptr;
            const unsigned long long v = std::strtoull(value, &end, 10);
            // Integer scalars only: formulas print a fraction.
            if (end != value && (*end == ' ' || *end == '\n' || *end == 0))
                fn(key, static_cast<u64>(v));
        }
        pos = eol + 1;
    }
}

} // namespace

u64
dumpValue(const std::string &dump, const std::string &key)
{
    u64 found = 0;
    forEachScalar(dump, [&](std::string_view k, u64 v) {
        if (k == key)
            found = v;
    });
    return found;
}

u64
dumpSum(const std::string &dump, const std::string &suffix)
{
    u64 sum = 0;
    forEachScalar(dump, [&](std::string_view k, u64 v) {
        if (k.size() >= suffix.size() &&
            k.substr(k.size() - suffix.size()) == suffix)
            sum += v;
    });
    return sum;
}

void
addKernelCounts(Report &report, const std::vector<std::string> &dumps)
{
    u64 scans = 0;
    u64 purged = 0;
    for (const std::string &dump : dumps) {
        report.addCount("os.cow_faults", dumpSum(dump, ".kernel.cowFaults"));
        report.addCount("os.cow_copies", dumpSum(dump, ".kernel.cowCopies"));
        report.addCount("os.protection_faults",
                        dumpSum(dump, ".kernel.protectionFaults"));
        report.addCount("os.domain_switches",
                        dumpSum(dump, ".kernel.domainSwitches"));
        std::vector<std::string> scanned;
        forEachScalar(dump, [&](std::string_view key, u64 v) {
            const std::string_view suffix = ".purgeScans";
            if (key.size() > suffix.size() &&
                key.substr(key.size() - suffix.size()) == suffix) {
                scans += v;
                key.remove_suffix(suffix.size());
                scanned.emplace_back(key);
            }
        });
        for (const std::string &structure : scanned)
            purged += dumpValue(dump, structure + ".purgedEntries");
    }
    report.addCount("hw.purge_scans", scans);
    report.addCount("hw.purged_entries", purged);
}

std::vector<farm::Campaign>
campaignsPerModel(u64 seed, const std::vector<std::string> &streams,
                  u64 seeds, u64 pages, u64 refs)
{
    std::vector<farm::Campaign> campaigns;
    for (core::ModelKind kind : models()) {
        std::vector<farm::SweepCell> cells;
        for (const auto &[name, factory] : farm::standardStreams()) {
            if (std::find(streams.begin(), streams.end(), name) ==
                streams.end())
                continue;
            for (u64 s = 0; s < seeds; ++s) {
                farm::SweepCell cell;
                cell.model = modelName(kind);
                cell.workload = name;
                cell.seed = deriveSeed(seed, s);
                cell.config = core::SystemConfig::forModel(kind);
                cell.pages = pages;
                cell.references = refs;
                cell.makeStream = factory;
                cells.push_back(std::move(cell));
            }
        }
        campaigns.emplace_back(std::move(cells));
    }
    return campaigns;
}

double
median(std::vector<double> values)
{
    SASOS_ASSERT(!values.empty(), "median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

u64
deriveSeed(u64 seed, u64 i)
{
    // SplitMix64 finalizer over (seed, i): distinct, well-mixed seeds.
    u64 z = seed * 0x9e3779b97f4a7c15ull + (i + 1) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % 1'000'000'007ull + 1;
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

bool
Report::matches(const std::string &expected, const std::string &actual)
{
    if (!corruptOneDump)
        return actual == expected;
    corruptOneDump = false;
    std::string corrupted = actual;
    if (!corrupted.empty())
        corrupted[corrupted.size() / 2] ^= 1;
    return corrupted == expected;
}

bool
Report::repeats(const std::string &label, const std::string &dump)
{
    const auto [it, inserted] = references_.emplace(label, dump);
    if (inserted) {
        labels_.push_back(label);
        return true;
    }
    return matches(it->second, dump);
}

const std::string &
Report::reference(const std::string &label) const
{
    static const std::string none;
    const auto it = references_.find(label);
    return it == references_.end() ? none : it->second;
}

std::vector<std::string>
Report::references(const std::string &prefix) const
{
    std::vector<std::string> dumps;
    for (const std::string &label : labels_) {
        if (label.compare(0, prefix.size(), prefix) == 0)
            dumps.push_back(references_.at(label));
    }
    return dumps;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

double
Report::value(const std::string &name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

void
Report::addCount(const std::string &name, u64 value)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value += static_cast<double>(value);
            return;
        }
    }
    metric(name, static_cast<double>(value), "count");
}

void
Report::print(const std::string &stamp_json) const
{
    std::printf("stamp %s\n", stamp_json.c_str());
    for (const std::string &label : labels_)
        std::printf("digest %s %s\n", label.c_str(),
                    digestOf(references_.at(label)).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

Spans::Spans() : epoch_(Clock::now()) {}

std::uint32_t
Spans::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

std::string
Spans::nameOf(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return names_.at(id);
}

std::int64_t
Spans::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

u64
Spans::begin(std::uint32_t name, u64 parent)
{
    const std::int64_t start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = name;
    span.run = run_;
    span.startNs = start;
    span.endNs = start;
    spans_.push_back(span);
    return span.id;
}

void
Spans::end(u64 id)
{
    const std::int64_t stop = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).endNs = stop;
}

std::vector<Spans::Span>
Spans::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::int64_t>
Spans::selfTimes(const std::vector<Span> &all)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(all.size());
    for (const Span &span : all) {
        if (span.parent != 0)
            children.at(span.parent - 1).emplace_back(span.startNs,
                                                      span.endNs);
    }
    std::vector<std::int64_t> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.startNs;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.endNs);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = span.duration() - covered;
    }
    return self;
}

void
Spans::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream os(path);
    for (const Span &span : all) {
        os << "{\"id\": " << span.id << ", \"parent\": " << span.parent
           << ", \"name\": \"" << nameOf(span.name)
           << "\", \"run\": " << span.run
           << ", \"start_ns\": " << span.startNs
           << ", \"end_ns\": " << span.endNs << "}\n";
    }
    if (!os)
        SASOS_FATAL("cannot write spans to ", path);
}

double
LayerTime::totalNs() const
{
    double total = 0.0;
    for (double d : durationsNs)
        total += d;
    return total;
}

double
LayerTime::medianMs() const
{
    return durationsNs.empty() ? 0.0 : median(durationsNs) / 1e6;
}

const LayerTime &
layerTime(const LayerTimes &times, const std::string &name)
{
    static const LayerTime none;
    const auto it = times.find(name);
    return it == times.end() ? none : it->second;
}

LayerTimes
layerTimes(const Spans &spans, std::uint32_t run)
{
    const std::vector<Spans::Span> all = spans.spans();
    const std::vector<std::int64_t> self = Spans::selfTimes(all);
    LayerTimes times;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].run != run)
            continue;
        LayerTime &t = times[spans.nameOf(all[i].name)];
        ++t.count;
        t.selfNs += static_cast<double>(self[i]);
        t.durationsNs.push_back(static_cast<double>(all[i].duration()));
    }
    return times;
}

double
Round::refsPerSecond() const
{
    u64 refs = 0;
    double seconds = 0.0;
    for (const auto &[name, m] : models) {
        refs += m.refs;
        seconds += m.seconds;
    }
    return seconds > 0.0 ? static_cast<double>(refs) / seconds : 0.0;
}

std::string
configSignature(std::string shape,
                const std::vector<core::SystemConfig> &configs)
{
    for (const core::SystemConfig &config : configs) {
        snap::SnapWriter writer;
        core::saveConfigSignature(writer, config);
        const std::vector<u8> image = writer.seal();
        shape.append(image.begin(), image.end());
    }
    return digestOf(shape);
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

} // namespace perfbench
