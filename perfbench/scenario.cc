/**
 * @file
 * The `scenario-churn` workload: enlarged server-mix, CoW fork-tree
 * and portal-RPC scripts, plus a per-page rights churn script, replayed
 * op by op with scn::applyOp on all four models, on one thread.
 *
 * Here writes sit beside reads: the kernel creates and destroys
 * domains, attaches, detaches, forks copy-on-write and restricts
 * pages between references, so the hardware purge and update paths
 * and the per-call System::access path do the work, while victim
 * selection and the batched path barely run. Building the scripts is
 * the set-up; each replay builds its System inside the timed phase.
 */

#include <sstream>

#include "bench.hh"
#include "core/system.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace perfbench
{

using namespace sasos;

namespace
{

/** Metric names of the kernel operations, by scn::OpKind. */
const char *
opName(scn::OpKind kind)
{
    switch (kind) {
      case scn::OpKind::Ref:
        return "ref";
      case scn::OpKind::Switch:
        return "switch";
      case scn::OpKind::CreateDomain:
        return "create_domain";
      case scn::OpKind::DestroyDomain:
        return "destroy_domain";
      case scn::OpKind::CreateSegment:
        return "create_segment";
      case scn::OpKind::DestroySegment:
        return "destroy_segment";
      case scn::OpKind::Attach:
        return "attach";
      case scn::OpKind::Detach:
        return "detach";
      case scn::OpKind::ForkCow:
        return "fork_cow";
      case scn::OpKind::SetPageRights:
        return "set_page_rights";
      case scn::OpKind::RestrictPage:
        return "restrict_page";
      case scn::OpKind::UnrestrictPage:
        return "unrestrict_page";
    }
    return "?";
}

constexpr std::size_t kOpKinds =
    static_cast<std::size_t>(scn::OpKind::UnrestrictPage) + 1;

constexpr scn::OpKind kKernelOps[] = {
    scn::OpKind::Switch,        scn::OpKind::CreateDomain,
    scn::OpKind::DestroyDomain, scn::OpKind::CreateSegment,
    scn::OpKind::DestroySegment, scn::OpKind::Attach,
    scn::OpKind::Detach,        scn::OpKind::ForkCow,
    scn::OpKind::SetPageRights, scn::OpKind::RestrictPage,
    scn::OpKind::UnrestrictPage,
};

/**
 * Per-page rights and detach churn, which none of the three scenario
 * families emits: waves of domains share one segment, each domain
 * narrows or widens its rights on single pages (the domain-page
 * model's setPageRights) and references the segment, then half of them
 * detach and keep referencing it before the wave is reaped. Built like
 * the scenario builders: kernel operations run against a probe System
 * so the script records the ids every replay must reproduce.
 */
scn::Script
buildRightsScript(u64 seed)
{
    constexpr u32 kWaves = 16;
    constexpr u32 kDomains = 8;
    constexpr u64 kPages = 32;
    constexpr u32 kTurns = 6;
    constexpr u64 kRefsPerTurn = 24;
    constexpr vm::Access kRights[] = {vm::Access::None, vm::Access::Read,
                                      vm::Access::ReadWrite};

    core::System probe(
        core::SystemConfig::forModel(core::ModelKind::Conventional));
    os::Kernel &kernel = probe.kernel();
    scn::Script script;
    script.name = "rights-churn";
    Rng rng(seed);
    const auto push = [&](scn::Op op) { script.ops.push_back(op); };
    const auto name = [&](const char *prefix) {
        std::string id(prefix);
        return id += std::to_string(script.ops.size());
    };
    const auto switchTo = [&](os::DomainId domain) {
        if (domain == kernel.currentDomain())
            return;
        kernel.switchTo(domain);
        scn::Op op;
        op.kind = scn::OpKind::Switch;
        op.domain = domain;
        push(op);
    };
    const auto ref = [&](os::DomainId domain, u64 base) {
        switchTo(domain);
        scn::Op op;
        op.kind = scn::OpKind::Ref;
        op.type = rng.bernoulli(0.3) ? vm::AccessType::Store
                                     : vm::AccessType::Load;
        op.addr = base + rng.nextBelow(kPages) * vm::kPageBytes +
                  rng.nextBelow(vm::kPageBytes / 8) * 8;
        push(op);
        ++script.refs;
    };

    scn::Op op;
    op.kind = scn::OpKind::CreateDomain;
    op.domain = kernel.createDomain(name("d"));
    push(op);
    const os::DomainId home = op.domain;
    for (u32 w = 0; w < kWaves; ++w) {
        op = scn::Op();
        op.kind = scn::OpKind::CreateSegment;
        op.pages = kPages;
        op.seg = kernel.createSegment(name("s"), kPages);
        push(op);
        const vm::SegmentId seg = op.seg;
        const u64 base = probe.state().segments.find(seg)->base().raw();
        std::vector<os::DomainId> domains;
        for (u32 i = 0; i < kDomains; ++i) {
            op = scn::Op();
            op.kind = scn::OpKind::CreateDomain;
            op.domain = kernel.createDomain(name("d"));
            push(op);
            domains.push_back(op.domain);
            op.kind = scn::OpKind::Attach;
            op.seg = seg;
            op.rights = vm::Access::ReadWrite;
            kernel.attach(op.domain, seg, op.rights);
            push(op);
        }
        for (u32 t = 0; t < kTurns; ++t) {
            for (os::DomainId domain : domains) {
                op = scn::Op();
                op.kind = scn::OpKind::SetPageRights;
                op.domain = domain;
                op.addr = base + rng.nextBelow(kPages) * vm::kPageBytes;
                op.rights = kRights[rng.nextBelow(3)];
                kernel.setPageRights(domain, vm::pageOf(vm::VAddr(op.addr)),
                                     op.rights);
                push(op);
                for (u64 r = 0; r < kRefsPerTurn; ++r)
                    ref(domain, base);
            }
        }
        for (u32 i = 0; i < kDomains; i += 2) {
            op = scn::Op();
            op.kind = scn::OpKind::Detach;
            op.domain = domains[i];
            op.seg = seg;
            kernel.detach(op.domain, seg);
            push(op);
            for (u64 r = 0; r < kRefsPerTurn; ++r)
                ref(domains[i], base);
        }
        switchTo(home);
        for (os::DomainId domain : domains) {
            op = scn::Op();
            op.kind = scn::OpKind::DestroyDomain;
            op.domain = domain;
            kernel.destroyDomain(domain);
            push(op);
        }
        op = scn::Op();
        op.kind = scn::OpKind::DestroySegment;
        op.seg = seg;
        kernel.destroySegment(seg);
        push(op);
    }
    return script;
}

/** The three scenario families, several times their default size, and
 * the rights churn. */
std::vector<scn::Script>
buildScripts(u64 seed)
{
    scn::ServerMixConfig mix;
    mix.seed = deriveSeed(seed, 0);
    mix.services = 4;
    mix.servicePages = 64;
    mix.waves = 24;
    mix.clientsPerWave = 16;
    mix.refsPerClient = 40;
    mix.restrictsPerWave = 4;

    scn::ForkConfig fork;
    fork.seed = deriveSeed(seed, 1);
    fork.depth = 5;
    fork.fanout = 2;
    fork.pages = 16;
    fork.refsPerTask = 300;
    fork.maxSegments = 160;

    scn::PortalConfig portal;
    portal.seed = deriveSeed(seed, 2);
    portal.clients = 8;
    portal.servers = 4;
    portal.chainLen = 3;
    portal.callsPerClient = 80;

    return {scn::buildServerMixScript(mix), scn::buildForkScript(fork),
            scn::buildPortalScript(portal),
            buildRightsScript(deriveSeed(seed, 3))};
}

class ScenarioBench final : public Workload
{
  public:
    ScenarioBench(u64 seed, Report &report, Spans *spans) : report_(report)
    {
        const Scope s(spans, spans ? spans->intern("scn.build") : 0);
        scripts_ = buildScripts(seed);
    }

    Shape
    shape() const override
    {
        Shape s;
        std::string shape = "scenario-churn";
        for (const scn::Script &script : scripts_)
            shape += " " + script.name + "=" +
                     std::to_string(script.ops.size());
        std::vector<core::SystemConfig> configs;
        for (core::ModelKind kind : models())
            configs.push_back(core::SystemConfig::forModel(kind));
        s.configSignature = configSignature(shape, configs);
        return s;
    }

    Round
    round(Spans *spans) override
    {
        Round round;
        const Scope whole(spans, spans ? spans->intern("scn.round") : 0);
        // decisions[script][model]
        std::vector<std::vector<std::vector<u8>>> decisions(
            scripts_.size());
        for (core::ModelKind kind : models()) {
            const std::string model = modelName(kind);
            Names names;
            if (spans)
                names = Names(*spans, model);
            ModelTime &time = round.models[model];
            for (std::size_t k = 0; k < scripts_.size(); ++k) {
                const scn::Script &script = scripts_[k];
                std::vector<u8> &out = decisions[k].emplace_back();
                out.reserve(script.refs);
                const Clock::time_point start = Clock::now();
                const Scope replay(spans, names.replay, whole.id());
                core::System sys(core::SystemConfig::forModel(kind));
                for (std::size_t i = 0; i < script.ops.size(); ++i) {
                    const scn::Op &op = script.ops[i];
                    const Scope s(spans,
                                  names.ops[static_cast<int>(op.kind)],
                                  replay.id());
                    const std::optional<bool> decision =
                        scn::applyOp(sys, op, i);
                    if (decision)
                        out.push_back(*decision ? 1 : 0);
                }
                time.seconds += secondsSince(start);
                time.refs += script.refs;
                std::ostringstream dump;
                sys.dumpStats(dump);
                const std::string label =
                    "scenario." + model + "." + script.name;
                report_.check(report_.repeats(label, dump.str()),
                              label + ": repeated dump differs");
            }
        }
        for (std::size_t k = 0; k < scripts_.size(); ++k) {
            bool agree = true;
            for (const std::vector<u8> &d : decisions[k])
                agree = agree && d == decisions[k][0] &&
                        d.size() == scripts_[k].refs;
            report_.check(agree, "scenario " + scripts_[k].name +
                                     ": models disagree on allow/deny");
        }
        return round;
    }

    void
    layerMetrics(const LayerTimes &times) override
    {
        report_.metric("scn.build_ms",
                       layerTime(times, "scn.build").medianMs(), "ms");
        double kernel_ns = 0.0;
        double access_ns = 0.0;
        for (scn::OpKind kind : kKernelOps) {
            const std::string op = opName(kind);
            const LayerTime &t = layerTime(times, "os." + op);
            kernel_ns += t.selfNs;
            report_.metric("os." + op + "_us", t.medianMs() * 1e3, "us");
        }
        for (core::ModelKind kind : models()) {
            const std::string model = modelName(kind);
            const LayerTime &t = layerTime(times, "core.access." + model);
            access_ns += t.selfNs;
            report_.metric("core.access_ns." + model,
                           t.count ? t.selfNs / t.count : 0.0, "ns");
        }
        report_.metric("os.kernel_share",
                       kernel_ns / (kernel_ns + access_ns), "share");
        addKernelCounts(report_, report_.references("scenario."));
    }

  private:
    /** Interned span names of one model's replay. */
    struct Names
    {
        Names() : ops(kOpKinds, 0) {}
        Names(Spans &spans, const std::string &model) : ops(kOpKinds, 0)
        {
            replay = spans.intern("scn.replay." + model);
            ops[static_cast<int>(scn::OpKind::Ref)] =
                spans.intern("core.access." + model);
            for (scn::OpKind kind : kKernelOps)
                ops[static_cast<int>(kind)] =
                    spans.intern(std::string("os.") + opName(kind));
        }

        std::uint32_t replay = 0;
        std::vector<std::uint32_t> ops;
    };

    Report &report_;
    std::vector<scn::Script> scripts_;
};

} // namespace

std::unique_ptr<Workload>
makeScenario(u64 seed, Report &report, Spans *spans)
{
    return std::make_unique<ScenarioBench>(seed, report, spans);
}

} // namespace perfbench
