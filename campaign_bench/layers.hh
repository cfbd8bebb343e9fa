/**
 * @file
 * Traced replica of one simulation run, for the campaign benchmark's
 * per-layer numbers.
 *
 * The replica builds a run from the simulator's public pieces
 * (makeMachineConfig + applyScheme, makeSpecWorkload behind a timing
 * Workload decorator, Pipeline) and drives Pipeline::tick /
 * nextEventCycle / skipIdleCycles in the loop Simulator::run uses, so
 * it commits exactly what the untraced run commits. Every call into a
 * module is timed from the outside; nothing inside the simulator is
 * instrumented.
 */

#ifndef CAMPAIGN_BENCH_LAYERS_HH
#define CAMPAIGN_BENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "sim/results.hh"
#include "sim/simulator.hh"

namespace campaign_bench
{

/** Counts and host times of one replicated run. */
struct LayerRun
{
    // ---- deterministic work counts, warm-up included ----
    std::uint64_t committedTotal = 0;
    std::uint64_t cyclesTotal = 0;
    std::uint64_t ticks = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t opCalls = 0;
    std::uint64_t wrongPathOps = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;

    // ---- simulated activity of the measured phase ----
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t lqSearches = 0;
    std::uint64_t lqSearchesFiltered = 0;
    std::uint64_t sqSearches = 0;
    std::uint64_t sqSearchesFiltered = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t baselineReplays = 0;
    std::uint64_t dmdcReplays = 0;
    std::uint64_t ageTableReplays = 0;
    std::uint64_t trueViolations = 0;
    std::uint64_t falseReplays = 0;
    std::uint64_t loadRejections = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    double energyTotal = 0;
    double energyLqFunction = 0;

    // ---- host time, nanoseconds ----
    double simulatorCtorNs = 0; ///< a public Simulator constructed
    double buildNs = 0;         ///< makeSpecWorkload
    double genNs = 0;           ///< Workload::op + wrongPathOp
    double tickSelfNs = 0;      ///< Pipeline::tick minus genNs
    double skipNs = 0;          ///< nextEventCycle + skipIdleCycles
    double energyNs = 0;        ///< EnergyModel::compute
};

/**
 * Replicate the run @p opt describes. Supports exactly the options
 * the benchmark's workloads use: no invalidations, observers, tweak,
 * verification or wall-clock deadline. Throws std::runtime_error on
 * an unsupported option or a stall-watchdog trip.
 */
LayerRun runLayered(const dmdc::SimOptions &opt);

/**
 * Empty when @p lr reproduces @p r (cycles, committed instructions,
 * searches, replays and energy, compared exactly); otherwise the
 * first mismatching field.
 */
std::string compareLayerRun(const LayerRun &lr, const dmdc::SimResult &r);

} // namespace campaign_bench

#endif // CAMPAIGN_BENCH_LAYERS_HH
