/**
 * @file
 * Traced replica of one simulation run (see layers.hh).
 */

#include "layers.hh"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/pipeline.hh"
#include "energy/energy_model.hh"
#include "lsq/dmdc.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"
#include "trace/workload.hh"

namespace campaign_bench
{

using namespace dmdc;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Forwarding Workload that counts and times every generator call. */
class TimedWorkload final : public Workload
{
  public:
    explicit TimedWorkload(Workload &inner) : inner_(inner) {}

    const MicroOp &
    op(std::uint64_t index) override
    {
        const Clock::time_point t0 = Clock::now();
        const MicroOp &m = inner_.op(index);
        genNs += nsSince(t0);
        ++opCalls;
        return m;
    }

    MicroOp
    wrongPathOp(Addr pc, std::uint64_t salt) override
    {
        const Clock::time_point t0 = Clock::now();
        MicroOp m = inner_.wrongPathOp(pc, salt);
        genNs += nsSince(t0);
        ++wrongPathOps;
        return m;
    }

    void
    discardBefore(std::uint64_t index) override
    {
        inner_.discardBefore(index);
    }

    const std::string &name() const override { return inner_.name(); }
    bool isFpBenchmark() const override { return inner_.isFpBenchmark(); }

    double genNs = 0;
    std::uint64_t opCalls = 0;
    std::uint64_t wrongPathOps = 0;

  private:
    Workload &inner_;
};

/** Counters read at phase boundaries; measured = end - after reset. */
struct Snapshot
{
    std::uint64_t committed, cycles, dispatched, issued, mispredicts,
        loadRejections, l1dAccesses, l1dMisses, l2Accesses, l2Misses;

    explicit Snapshot(const Pipeline &p)
        : committed(p.stats().committedInsts.value()),
          cycles(p.stats().cycles.value()),
          dispatched(p.stats().dispatched.value()),
          issued(p.stats().issued.value()),
          mispredicts(p.stats().branchMispredicts.value()),
          loadRejections(p.stats().loadRejections.value()),
          l1dAccesses(p.mem().l1d().hits() + p.mem().l1d().misses()),
          l1dMisses(p.mem().l1d().misses()),
          l2Accesses(p.mem().l2().hits() + p.mem().l2().misses()),
          l2Misses(p.mem().l2().misses())
    {
    }
};

} // namespace

LayerRun
runLayered(const SimOptions &opt)
{
    if (opt.invalidationsPer1kCycles != 0.0 || !opt.observers.empty() ||
        opt.tweak || opt.check != CheckMode::Off ||
        !opt.coherenceAgent.empty() || opt.timeoutMs != 0.0)
        throw std::runtime_error("traced replica: unsupported option in "
                                 "run of " + opt.benchmark);
    LayerRun lr;

    Clock::time_point t0 = Clock::now();
    {
        const Simulator probe(opt);
    }
    lr.simulatorCtorNs = nsSince(t0);

    // The configuration sequence of Simulator's constructor.
    CoreParams params = makeMachineConfig(opt.configLevel);
    applyScheme(params, opt.scheme, opt.coherence, opt.safeLoads);
    params.lsq.dmdc.numYlaQw = opt.numYlaQw;
    if (opt.tableEntriesOverride)
        params.lsq.dmdc.tableEntries = opt.tableEntriesOverride;
    params.lsq.dmdc.queueEntries = opt.queueEntries;
    params.lsq.sqFilter = opt.sqFilter;

    t0 = Clock::now();
    std::unique_ptr<SyntheticWorkload> inner =
        makeSpecWorkload(opt.benchmark);
    lr.buildNs = nsSince(t0);
    TimedWorkload workload(*inner);
    Pipeline pipe(params, workload);

    // Simulator::run's loop with no external invalidation source: the
    // stall watchdog still caps every skip, so skip sizes match.
    const std::uint64_t stall_limit = opt.stallCycleLimit;
    auto run_phase = [&](std::uint64_t insts) {
        const std::uint64_t target = pipe.committed() + insts;
        std::uint64_t last_committed = pipe.committed();
        std::uint64_t stall_cycles = 0;
        while (pipe.committed() < target) {
            const double gen_before = workload.genNs;
            const Clock::time_point tick0 = Clock::now();
            const unsigned progress = pipe.tick();
            lr.tickSelfNs += nsSince(tick0) - (workload.genNs - gen_before);
            ++lr.ticks;
            if (pipe.committed() == last_committed) {
                if (stall_limit && ++stall_cycles > stall_limit)
                    throw std::runtime_error(
                        "traced replica: no commit progress (" +
                        opt.benchmark + ")");
            } else {
                stall_cycles = 0;
                last_committed = pipe.committed();
            }
            if (progress == 0 && pipe.committed() < target) {
                const Clock::time_point skip0 = Clock::now();
                const Cycle wake = pipe.nextEventCycle();
                Cycle n = wake > pipe.now() + 1 ? wake - pipe.now() - 1 : 0;
                if (stall_limit && n > stall_limit - stall_cycles)
                    n = stall_limit - stall_cycles;
                if (n > 0) {
                    pipe.skipIdleCycles(n);
                    stall_cycles += n;
                    lr.skippedCycles += n;
                }
                lr.skipNs += nsSince(skip0);
            }
        }
    };

    run_phase(opt.warmupInsts);
    const Snapshot warm(pipe);
    pipe.resetStats();
    const Snapshot reset(pipe);
    run_phase(opt.runInsts);
    const Snapshot end(pipe);

    lr.committedTotal = warm.committed + end.committed - reset.committed;
    lr.cyclesTotal = warm.cycles + end.cycles - reset.cycles;
    lr.dispatched = warm.dispatched + end.dispatched - reset.dispatched;
    lr.issued = warm.issued + end.issued - reset.issued;
    lr.opCalls = workload.opCalls;
    lr.wrongPathOps = workload.wrongPathOps;
    lr.genNs = workload.genNs;

    lr.insts = end.committed - reset.committed;
    lr.cycles = end.cycles - reset.cycles;
    lr.mispredicts = end.mispredicts - reset.mispredicts;
    lr.loadRejections = end.loadRejections - reset.loadRejections;
    lr.l1dAccesses = end.l1dAccesses - reset.l1dAccesses;
    lr.l1dMisses = end.l1dMisses - reset.l1dMisses;
    lr.l2Accesses = end.l2Accesses - reset.l2Accesses;
    lr.l2Misses = end.l2Misses - reset.l2Misses;

    const PipelineStats &ps = pipe.stats();
    const auto &act = pipe.lsq().activity();
    lr.lqSearches = act.lqSearches.value();
    lr.lqSearchesFiltered = act.lqSearchesFiltered.value();
    lr.sqSearches = act.sqSearches.value();
    lr.sqSearchesFiltered = act.sqSearchesFiltered.value();
    lr.committedLoads = ps.committedLoads.value();
    lr.committedStores = ps.committedStores.value();
    lr.baselineReplays = ps.baselineReplays.value();
    lr.dmdcReplays = ps.dmdcReplays.value();
    lr.ageTableReplays = ps.ageTableReplays.value();
    lr.trueViolations = act.trueViolationsDetected.value();
    if (const DmdcEngine *engine = pipe.lsq().dmdc()) {
        const auto &ds = engine->stats();
        lr.falseReplays = ds.falseAddrX.value() + ds.falseAddrY.value() +
            ds.falseHashBefore.value() + ds.falseHashX.value() +
            ds.falseHashY.value() + ds.falseOverflow.value();
    }

    t0 = Clock::now();
    const EnergyBreakdown energy = EnergyModel(params).compute(pipe);
    lr.energyNs = nsSince(t0);
    lr.energyTotal = energy.total();
    lr.energyLqFunction = energy.lqFunction();
    return lr;
}

std::string
compareLayerRun(const LayerRun &lr, const SimResult &r)
{
    struct Field
    {
        const char *name;
        std::uint64_t replica, result;
    };
    const Field fields[] = {
        {"instructions", lr.insts, r.instructions},
        {"cycles", lr.cycles, r.cycles},
        {"lq_searches", lr.lqSearches, r.lqSearches},
        {"lq_searches_filtered", lr.lqSearchesFiltered,
         r.lqSearchesFiltered},
        {"sq_searches", lr.sqSearches, r.sqSearches},
        {"sq_searches_filtered", lr.sqSearchesFiltered,
         r.sqSearchesFiltered},
        {"committed_loads", lr.committedLoads, r.committedLoads},
        {"committed_stores", lr.committedStores, r.committedStores},
        {"baseline_replays", lr.baselineReplays, r.baselineReplays},
        {"dmdc_replays", lr.dmdcReplays, r.dmdcReplays},
        {"age_table_replays", lr.ageTableReplays, r.ageTableReplays},
        {"true_violations", lr.trueViolations, r.trueViolations},
        {"false_replays", lr.falseReplays,
         static_cast<std::uint64_t>(r.falseReplays())},
    };
    for (const Field &f : fields) {
        if (f.replica != f.result)
            return std::string(f.name) + " " + std::to_string(f.replica) +
                " != " + std::to_string(f.result);
    }
    if (lr.energyTotal != r.energy.total() ||
        lr.energyLqFunction != r.energy.lqFunction())
        return "energy differs";
    return "";
}

} // namespace campaign_bench
