/**
 * @file
 * Golden-replay regression test: a small checked-in trace replayed
 * exactly, on every architecture, against a checked-in snapshot of
 * the replay outcome and full statistics dump.
 *
 * Any change to reference handling, fault resolution, cost charging
 * or stats layout shows up as a diff here. When the change is
 * intentional, regenerate the snapshot:
 *
 *   SASOS_GOLDEN_REGEN=1 ./golden_test
 *
 * and commit the updated tests/data/golden_expected.txt (and
 * golden_stats.json for the machine-readable snapshot).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/mc/mc_system.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "temp_dir.hh"
#include "trace/trace.hh"

using namespace sasos;

namespace
{

std::string
dataPath(const char *name)
{
    return std::string(SASOS_TEST_DATA_DIR) + "/" + name;
}

/** The golden scenario: two domains with asymmetric rights over two
 * 4-page segments. The trace was written against these bases. */
struct GoldenScenario
{
    os::DomainId a = 0;
    os::DomainId b = 0;
};

GoldenScenario
setupGolden(core::System &sys)
{
    GoldenScenario scenario;
    auto &kernel = sys.kernel();
    scenario.a = kernel.createDomain("a");
    scenario.b = kernel.createDomain("b");
    const vm::SegmentId seg1 = kernel.createSegment("code-heap", 4);
    const vm::SegmentId seg2 = kernel.createSegment("shared", 4);
    // The trace addresses assume this layout; fail loudly if the
    // allocator ever places segments differently.
    EXPECT_EQ(sys.state().segments.find(seg1)->base().raw(), 0x100000u);
    EXPECT_EQ(sys.state().segments.find(seg2)->base().raw(), 0x104000u);
    kernel.attach(scenario.a, seg1, vm::Access::ReadWrite);
    kernel.attach(scenario.a, seg2, vm::Access::Read);
    kernel.attach(scenario.b, seg1, vm::Access::Read);
    kernel.attach(scenario.b, seg2, vm::Access::All);
    return scenario;
}

/** Convert the checked-in text trace to a binary trace in `dir`. */
std::string
binaryGoldenTrace(const ScopedTempDir &dir)
{
    const std::string out = dir.file("golden.trc");
    std::ifstream in(dataPath("golden.trace.txt"));
    EXPECT_TRUE(in.good()) << "missing " << dataPath("golden.trace.txt");
    trace::TraceWriter writer(out);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        writer.append(trace::fromText(line));
    }
    return out;
}

} // namespace

TEST(GoldenReplayTest, MatchesCheckedInSnapshot)
{
    const ScopedTempDir dir("golden");
    const std::string trace_path = binaryGoldenTrace(dir);

    std::ostringstream actual;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::System sys(core::SystemConfig::forModel(kind));
        const GoldenScenario scenario = setupGolden(sys);
        trace::TraceReader reader(trace_path);
        const trace::ReplayResult result = trace::replay(
            sys, reader, {{1, scenario.a}, {2, scenario.b}});
        actual << "==== " << core::toString(kind) << " ====\n";
        actual << "records " << result.records << " references "
               << result.references << " switches " << result.switches
               << " failed " << result.failedReferences << "\n";
        sys.dumpStats(actual);
        actual << "\n";
    }

    const std::string expected_path = dataPath("golden_expected.txt");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden replay diverged; if intentional, regenerate with "
           "SASOS_GOLDEN_REGEN=1";
}

/** The same golden replay, snapshotted through the machine-readable
 * stats exporter: any change to the stats tree layout, the JSON
 * emitter or the cycle accounting shows up as a diff against
 * tests/data/golden_stats.json. */
TEST(GoldenReplayTest, StatsJsonMatchesCheckedInSnapshot)
{
    const ScopedTempDir dir("golden");
    const std::string trace_path = binaryGoldenTrace(dir);

    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::System sys(core::SystemConfig::forModel(kind));
        const GoldenScenario scenario = setupGolden(sys);
        trace::TraceReader reader(trace_path);
        trace::replay(sys, reader, {{1, scenario.a}, {2, scenario.b}});
        if (!first)
            actual << ",\n";
        first = false;
        sys.dumpStatsJson(actual);
    }
    actual << "\n]\n";

    const std::string expected_path = dataPath("golden_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden stats JSON diverged; if intentional, regenerate "
           "with SASOS_GOLDEN_REGEN=1";
}

/** The three application scenarios (CoW fork tree, portal RPC chains,
 * server-style mix) replayed on every model, snapshotted through the
 * stats exporter plus the replay tallies: any change to the scenario
 * builders, the CoW fault path, portal attachment wiring or cost
 * charging shows up as a diff against
 * tests/data/golden_scenario_stats.json. Regenerate (and review the
 * diff!) with SASOS_GOLDEN_REGEN=1 after intentional changes. */
TEST(GoldenReplayTest, ScenarioStatsJsonMatchesCheckedInSnapshot)
{
    const std::vector<scn::Script> scripts = scn::standardScripts(1);

    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (const scn::Script &script : scripts) {
        for (core::ModelKind kind :
             {core::ModelKind::Plb, core::ModelKind::PageGroup,
              core::ModelKind::Conventional, core::ModelKind::Pkey}) {
            core::System sys(core::SystemConfig::forModel(kind));
            const scn::RunStats tally = scn::runScript(sys, script);
            EXPECT_EQ(tally.refs, script.refs) << script.name;
            if (!first)
                actual << ",\n";
            first = false;
            actual << "{\"scenario\": \"" << script.name
                   << "\", \"refs\": " << tally.refs
                   << ", \"allowed\": " << tally.allowed
                   << ", \"denied\": " << tally.denied << ",\n\"stats\": ";
            sys.dumpStatsJson(actual);
            actual << "}";
        }
    }
    actual << "\n]\n";

    const std::string expected_path = dataPath("golden_scenario_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden scenario stats diverged; if intentional, regenerate "
           "with SASOS_GOLDEN_REGEN=1";
}

/** A fixed 4-core multi-core run per model, snapshotted through the
 * stats exporter: the interleaving schedule, the IPI delay model, the
 * shootdown accounting and the per-core stats layout are all pinned
 * by tests/data/golden_mc_stats.json. Regenerate (and review the
 * diff!) with SASOS_GOLDEN_REGEN=1 after intentional changes. */
TEST(GoldenReplayTest, McStatsJsonMatchesCheckedInSnapshot)
{
    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::mc::McConfig config;
        config.system = core::SystemConfig::forModel(kind);
        config.cores = 4;
        config.workload.stepsPerCore = 300;
        config.workload.churnProb = 0.1;
        config.workload.seed = 5;
        core::mc::McSystem engine(config);
        const core::mc::McResult result = engine.run();
        EXPECT_EQ(result.invariantViolations, 0u)
            << core::toString(kind) << ": " << result.firstViolation;
        EXPECT_EQ(result.hwViolations, 0u)
            << core::toString(kind) << ": " << result.firstViolation;
        if (!first)
            actual << ",\n";
        first = false;
        engine.dumpStatsJson(actual);
    }
    actual << "\n]\n";

    const std::string expected_path = dataPath("golden_mc_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden multi-core stats diverged; if intentional, "
           "regenerate with SASOS_GOLDEN_REGEN=1";
}

/** Frame churn under small caches: demand maps, unmaps, remaps and a
 * CoW fork, so the physical frames each page ends up on -- and with
 * them the physically indexed L2's set conflicts -- are pinned by
 * tests/data/golden_frame_churn.txt. The L1 (4 KB) indexes inside the
 * page offset, so every page's first line meets in one L1 set and
 * goes on to the direct-mapped 16 KB L2, whose set index takes two
 * bits of the frame number. Any change to the order in which freed
 * and fresh frames are handed out shows up as a diff. Regenerate
 * (and review the diff!) with SASOS_GOLDEN_REGEN=1 after intentional
 * changes. */
TEST(GoldenReplayTest, FrameChurnMatchesCheckedInSnapshot)
{
    constexpr u64 kPages = 16;
    std::ostringstream actual;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::SystemConfig config = core::SystemConfig::forModel(kind);
        config.cache.sizeBytes = 4 * 1024;
        config.l2.sizeBytes = 16 * 1024;
        config.l2.ways = 1;
        core::System sys(config);
        auto &kernel = sys.kernel();
        const os::DomainId parent = kernel.createDomain("parent");
        const os::DomainId child = kernel.createDomain("child");
        const vm::SegmentId heap = kernel.createSegment("heap", kPages);
        kernel.attach(parent, heap, vm::Access::ReadWrite);
        const vm::VAddr base = sys.state().segments.find(heap)->base();
        const auto page = [](vm::VAddr seg_base, u64 i) {
            return seg_base + i * vm::kPageBytes;
        };

        // Demand-map every page, free four frames, then map two of
        // the pages back onto freed frames.
        kernel.switchTo(parent);
        for (u64 i = 0; i < kPages; ++i)
            sys.store(page(base, i));
        for (u64 i : {3, 7, 8, 12})
            kernel.unmapPage(vm::pageOf(page(base, i)));
        for (u64 i : {12, 3})
            sys.store(page(base, i));

        // CoW fork: stores on either side copy shared frames, and the
        // child's first touch of a page unmapped in the parent maps a
        // fresh one.
        const vm::SegmentId copy = kernel.forkSegmentCow(
            heap, child, vm::Access::ReadWrite, "copy");
        const vm::VAddr copy_base = sys.state().segments.find(copy)->base();
        kernel.switchTo(child);
        for (u64 i : {0, 1, 2, 4, 7})
            sys.store(page(copy_base, i));
        kernel.switchTo(parent);
        for (u64 i : {5, 8})
            sys.store(page(base, i));

        // Load page pairs' first lines as a, b, a: b displaces a from
        // the L1, so a's second load hits in the L2 unless the two
        // frames share a colour (and are not one shared frame). Pair
        // each parent page with its child copy and with two other
        // parent pages.
        const auto pair = [&](os::DomainId b_domain, vm::VAddr a,
                              vm::VAddr b) {
            kernel.switchTo(parent);
            sys.load(a);
            kernel.switchTo(b_domain);
            sys.load(b);
            kernel.switchTo(parent);
            sys.load(a);
        };
        for (u64 i = 0; i < kPages; ++i) {
            pair(child, page(base, i), page(copy_base, i));
            pair(parent, page(base, i), page(base, (i + 1) % kPages));
            pair(parent, page(base, i), page(base, (i + 6) % kPages));
        }

        actual << "==== " << core::toString(kind) << " ====\n";
        for (vm::VAddr seg_base : {base, copy_base}) {
            for (u64 i = 0; i < kPages; ++i) {
                const vm::Vpn vpn = vm::pageOf(page(seg_base, i));
                const vm::Translation *t = sys.state().pageTable.lookup(vpn);
                actual << "vpn " << vpn.number() << " pfn ";
                if (t == nullptr)
                    actual << "-";
                else
                    actual << t->pfn.number();
                actual << "\n";
            }
        }
        sys.dumpStats(actual);
        actual << "\n";
    }

    const std::string expected_path = dataPath("golden_frame_churn.txt");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden frame churn diverged; if intentional, regenerate with "
           "SASOS_GOLDEN_REGEN=1";
}
