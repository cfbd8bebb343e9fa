/**
 * @file
 * google-benchmark microbenchmarks of the simulator kernel fast
 * paths: DynInst pool recycling vs. heap allocation, the store
 * queue's O(1) safe-load check and binary-search load probe, the
 * checking table's occupancy pre-filter, wakeup-driven issue select
 * over a full issue queue, the calendar completion queue vs. a
 * (when, seq) heap, table-driven op generation, the cost of an empty
 * pipeline tick vs. one bulk-skipped idle cycle, and the trace-sink
 * call sites (disabled vs. recording). These document the
 * kernel-performance architecture (DESIGN.md Sec. 15) and guard the
 * fast paths against accidental complexity regressions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/object_pool.hh"
#include "common/random.hh"
#include "common/trace_sink.hh"
#include "core/completion_queue.hh"
#include "core/pipeline.hh"
#include "lsq/checking_table.hh"
#include "lsq/store_queue.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"
#include "trace/workload.hh"

namespace
{

using namespace dmdc;

// ---- DynInst lifetime: pool recycling vs. the heap ------------------

void
BM_PoolAcquireRelease(benchmark::State &state)
{
    ObjectPool<DynInst> pool(256);
    for (auto _ : state) {
        DynInst *inst = pool.acquire();
        inst->seq = 1;
        benchmark::DoNotOptimize(inst);
        pool.release(inst);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease);

void
BM_HeapAllocFree(benchmark::State &state)
{
    for (auto _ : state) {
        auto inst = std::make_unique<DynInst>();
        inst->seq = 1;
        benchmark::DoNotOptimize(inst.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapAllocFree);

// Steady-state churn at ROB-ish occupancy: allocate a burst, retire
// the oldest — the pipeline's actual usage pattern.
void
BM_PoolChurn(benchmark::State &state)
{
    const unsigned live = static_cast<unsigned>(state.range(0));
    ObjectPool<DynInst> pool(live + 8);
    std::vector<DynInst *> window;
    for (unsigned i = 0; i < live; ++i)
        window.push_back(pool.acquire());
    std::size_t head = 0;
    for (auto _ : state) {
        pool.release(window[head]);
        window[head] = pool.acquire();
        head = (head + 1) % window.size();
    }
    for (DynInst *inst : window)
        pool.release(inst);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolChurn)->Arg(64)->Arg(256);

// ---- store queue fast paths -----------------------------------------

/** Build a full SQ; @p unresolved_every marks every Nth store
 *  address-unresolved (0 = all resolved). */
std::vector<std::unique_ptr<DynInst>>
makeStores(StoreQueue &sq, unsigned count, unsigned unresolved_every)
{
    Rng rng(7);
    std::vector<std::unique_ptr<DynInst>> stores;
    for (unsigned i = 0; i < count; ++i) {
        auto inst = std::make_unique<DynInst>();
        inst->seq = i + 1;
        inst->op.cls = OpClass::Store;
        inst->op.effAddr = rng.range(1 << 20) & ~Addr{7};
        inst->op.memSize = 8;
        inst->sqAddrReady =
            !(unresolved_every && (i % unresolved_every) == 0);
        inst->sqDataReady = inst->sqAddrReady;
        sq.allocate(inst.get());
        stores.push_back(std::move(inst));
    }
    return stores;
}

void
BM_SqAllOlderResolved(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 8);
    SeqNum seq = 0;
    for (auto _ : state) {
        seq = (seq + 1) % (sq_size + 2);
        benchmark::DoNotOptimize(sq.allOlderResolved(seq));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqAllOlderResolved)->Arg(48)->Arg(192);

/**
 * checkLoad for a load OLDER than most of the queue: the binary
 * search skips the younger suffix instead of walking it entry by
 * entry, so cost no longer scales with SQ occupancy.
 */
void
BM_SqCheckLoadOldLoad(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 0);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 20) - 1);
        benchmark::DoNotOptimize(sq.checkLoad(2, addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqCheckLoadOldLoad)->Arg(48)->Arg(192);

/** checkLoad for a load younger than the whole queue (full scan). */
void
BM_SqCheckLoadYoungLoad(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 0);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 20) - 1);
        benchmark::DoNotOptimize(
            sq.checkLoad(sq_size + 1, addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqCheckLoadYoungLoad)->Arg(48)->Arg(192);

// ---- checking-table occupancy pre-filter ----------------------------

void
BM_CheckingTableMissFastPath(benchmark::State &state)
{
    CheckingTable table(2048);
    GhostStoreRecord g;
    g.addr = 0x1000;
    g.size = 8;
    table.markStore(0x1000, 8, g);
    // Probe a sweep of addresses; almost every probe misses and takes
    // the occupancy-word early-out.
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 22) - 1);
        benchmark::DoNotOptimize(table.checkLoad(addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckingTableMissFastPath);

// ---- wakeup-driven issue select -------------------------------------

/**
 * A loop that keeps the INT issue queue full of waiting entries: one
 * 20-cycle unpipelined divide, 62 adds that all read its result, and
 * a backward jump. Between divides almost nothing is ready, so a
 * select that polls every IQ entry pays for the whole queue each
 * tick while a wakeup-driven select walks an empty ready set.
 */
class DivFanoutWorkload : public Workload
{
  public:
    DivFanoutWorkload()
    {
        constexpr Addr base = 0x1000;
        for (unsigned i = 0; i < loopOps; ++i) {
            MicroOp &op = loop_[i];
            op.pc = base + 4 * i;
            op.nextPc = op.pc + 4;
            if (i == 0) {
                op.cls = OpClass::IntDiv;
                op.dst = 1;
                op.src1 = 1;
                op.src2 = 2;
            } else if (i + 1 == loopOps) {
                op.cls = OpClass::Branch;
                op.branch = BranchKind::Uncond;
                op.taken = true;
                op.targetPc = base;
                op.nextPc = base;
            } else {
                op.cls = OpClass::IntAlu;
                op.dst = static_cast<RegIndex>(3 + i % 16);
                op.src1 = 1;
            }
        }
    }

    const MicroOp &
    op(std::uint64_t index) override
    {
        return loop_[index % loopOps];
    }

    MicroOp
    wrongPathOp(Addr pc, std::uint64_t) override
    {
        MicroOp op;
        op.pc = pc;
        op.nextPc = pc + 4;
        op.cls = OpClass::IntAlu;
        return op;
    }

    void discardBefore(std::uint64_t) override {}
    const std::string &name() const override { return name_; }
    bool isFpBenchmark() const override { return false; }

  private:
    static constexpr unsigned loopOps = 64;
    MicroOp loop_[loopOps];
    std::string name_ = "div-fanout";
};

void
BM_IssueSelect(benchmark::State &state)
{
    CoreParams p = makeMachineConfig(3);
    applyScheme(p, "dmdc-global");
    DivFanoutWorkload w;
    Pipeline pipe(p, w);
    // Warm up past the cold I-cache and BTB so the IQ is full.
    for (unsigned i = 0; i < 5000; ++i)
        pipe.tick();
    const std::uint64_t examined0 = pipe.selectExamined();
    const std::uint64_t committed0 = pipe.committed();
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    const double ticks = static_cast<double>(state.iterations());
    state.counters["examined_per_tick"] =
        static_cast<double>(pipe.selectExamined() - examined0) / ticks;
    state.counters["ipc"] =
        static_cast<double>(pipe.committed() - committed0) / ticks;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IssueSelect);

// ---- completion queue -----------------------------------------------

/**
 * One simulated cycle per iteration at a config-3-like load: pop the
 * due completions, issue four (three short latencies and a load that
 * misses to memory one time in eight), and squash the 20 youngest on
 * every 16th cycle. Items are completions.
 */
struct CompletionLoad
{
    static constexpr Cycle maxLatency = 138;   // 1 + 2 + 15 + 120

    static Cycle
    latency(SeqNum seq, unsigned k)
    {
        if (k < 3)
            return 1 + (seq & 3);
        return (seq & 7) == 0 ? maxLatency : 3;
    }

    std::vector<DynInst> insts = std::vector<DynInst>(4096);
    SeqNum seq = 1;
    Cycle now = 0;
};

void
BM_CompletionQueue(benchmark::State &state)
{
    CompletionLoad load;
    CompletionQueue q(CompletionLoad::maxLatency);
    std::uint64_t completed = 0;
    for (auto _ : state) {
        ++load.now;
        completed += q.popDue(load.now, [](DynInst *inst) {
            benchmark::DoNotOptimize(inst);
        });
        for (unsigned k = 0; k < 4; ++k) {
            DynInst &inst = load.insts[load.seq % load.insts.size()];
            inst.seq = load.seq++;
            q.schedule(&inst, load.now + CompletionLoad::latency(inst.seq, k),
                       load.now);
        }
        if ((load.now & 15) == 0)
            q.squashFrom(load.seq - 20);
    }
    state.counters["examined_per_completion"] =
        static_cast<double>(q.examined()) /
        static_cast<double>(std::max<std::uint64_t>(q.popped(), 1));
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_CompletionQueue);

/** The same load on the binary heap the calendar queue replaced. */
void
BM_CompletionHeap(benchmark::State &state)
{
    struct Event
    {
        Cycle when;
        SeqNum seq;
        DynInst *inst;
    };
    const auto later = [](const Event &a, const Event &b) {
        return a.when > b.when || (a.when == b.when && a.seq > b.seq);
    };
    CompletionLoad load;
    std::vector<Event> heap;
    std::uint64_t completed = 0;
    for (auto _ : state) {
        ++load.now;
        while (!heap.empty() && heap.front().when <= load.now) {
            std::pop_heap(heap.begin(), heap.end(), later);
            benchmark::DoNotOptimize(heap.back().inst);
            heap.pop_back();
            ++completed;
        }
        for (unsigned k = 0; k < 4; ++k) {
            DynInst &inst = load.insts[load.seq % load.insts.size()];
            inst.seq = load.seq++;
            heap.push_back(
                {load.now + CompletionLoad::latency(inst.seq, k),
                 inst.seq, &inst});
            std::push_heap(heap.begin(), heap.end(), later);
        }
        if ((load.now & 15) == 0) {
            const SeqNum from = load.seq - 20;
            std::erase_if(heap,
                          [from](const Event &e) { return e.seq >= from; });
            std::make_heap(heap.begin(), heap.end(), later);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_CompletionHeap);

// ---- op generation --------------------------------------------------

/**
 * Committed-path op generation over the whole suite: each iteration
 * generates one op, cycling through the 26 workloads in 4096-op runs
 * and trimming a fetch-like 256-op window, so the time per iteration
 * is ns per generated op. formula_evals_per_op counts the log1p calls
 * the geometric tables fell back to.
 */
void
BM_Generate(benchmark::State &state)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> ws;
    for (const std::string &name : specAllNames())
        ws.push_back(makeSpecWorkload(name));
    std::vector<std::uint64_t> next(ws.size(), 0);
    std::size_t cur = 0;
    unsigned run = 0;
    for (auto _ : state) {
        SyntheticWorkload &w = *ws[cur];
        const std::uint64_t idx = next[cur]++;
        benchmark::DoNotOptimize(w.op(idx).effAddr);
        if (idx >= 256)
            w.discardBefore(idx - 256);
        if (++run == 4096) {
            run = 0;
            cur = cur + 1 == ws.size() ? 0 : cur + 1;
        }
    }
    std::uint64_t evals = 0;
    std::uint64_t ops = 0;
    for (const auto &w : ws) {
        evals += w->formulaEvals();
        ops += w->generatedOps();
    }
    state.counters["formula_evals_per_op"] =
        static_cast<double>(evals) /
        static_cast<double>(std::max<std::uint64_t>(ops, 1));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Generate);

// ---- empty tick vs. skipped tick ------------------------------------

/**
 * A pipeline that can never fetch (fetch queue size 0) executes a
 * pure empty tick every cycle: the full stage walk with nothing to
 * do. skipIdleCycles() is the bulk replacement the event-driven
 * skip substitutes for those ticks.
 */
CoreParams
idleParams()
{
    CoreParams p = makeMachineConfig(2);
    applyScheme(p, "dmdc-global");
    p.fetchQueueSize = 0;
    return p;
}

void
BM_EmptyTick(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmptyTick);

void
BM_SkippedTick(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        pipe.skipIdleCycles(1);
    benchmark::DoNotOptimize(pipe.now());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkippedTick);

void
BM_SkippedTickBulk(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        pipe.skipIdleCycles(1024);
    benchmark::DoNotOptimize(pipe.now());
    // One skip call covers 1024 cycles.
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SkippedTickBulk);

// ---- trace-sink call sites ------------------------------------------

/**
 * Tracing is compiled into the kernel hot paths unconditionally, so
 * the disabled call site IS the tracing-off overhead budget (DESIGN.md
 * Sec. 18: <= 1% of sim-kHz). It must stay one relaxed atomic load.
 */
void
BM_TraceInstantDisabled(benchmark::State &state)
{
    TraceCategory &cat = traceCategory("bench-trace-off");
    const std::uint16_t name = traceNameId("bench-evt");
    std::uint64_t i = 0;
    for (auto _ : state)
        traceInstantArg(cat, name, ++i);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstantDisabled);

void
BM_TraceInstantEnabled(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "bench-trace-on";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    TraceCategory &cat = traceCategory("bench-trace-on");
    const std::uint16_t name = traceNameId("bench-evt");
    std::uint64_t i = 0;
    for (auto _ : state)
        traceInstantArg(cat, name, ++i);
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_TraceInstantEnabled);

void
BM_TraceSpanDisabled(benchmark::State &state)
{
    TraceCategory &cat = traceCategory("bench-trace-off");
    const std::uint16_t name = traceNameId("bench-span");
    for (auto _ : state) {
        TraceSpan span(cat, name);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void
BM_TraceSpanEnabled(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "bench-trace-on";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    TraceCategory &cat = traceCategory("bench-trace-on");
    const std::uint16_t name = traceNameId("bench-span");
    for (auto _ : state) {
        TraceSpan span(cat, name);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_TraceSpanEnabled);

/** The full per-cycle phase instrumentation, recording: four spans
 *  per tick on the "kernel-phases" category. Compare to BM_EmptyTick
 *  (same tick, tracing off) for the worst-case enabled overhead. */
void
BM_EmptyTickTraced(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "kernel-phases";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_EmptyTickTraced);

} // namespace

BENCHMARK_MAIN();
