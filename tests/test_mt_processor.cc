/**
 * @file
 * Tests for the multithreaded-node simulator: cycle accounting
 * invariants, saturation/linear-regime behaviour, the two-phase
 * unloading policy, and flexible-vs-fixed comparisons on the paper's
 * workloads.
 */

#include <gtest/gtest.h>

#include "base/distributions.hh"
#include "base/stats.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "trace/sink.hh"

namespace rr::mt {
namespace {

/** Figure 5 settings: cache faults, constant latency. */
MtConfig
cacheConfig(ArchKind arch, unsigned num_regs, double mean_run,
            uint64_t latency, uint64_t seed = 1)
{
    return SimulationSpec()
        .cacheFaults(mean_run, latency)
        .arch(arch)
        .numRegs(num_regs)
        .seed(seed)
        .build();
}

/** Figure 6 settings: sync faults, exponential latency. */
MtConfig
syncConfig(ArchKind arch, unsigned num_regs, double mean_run,
           double mean_latency, uint64_t seed = 1)
{
    return SimulationSpec()
        .syncFaults(mean_run, mean_latency)
        .arch(arch)
        .numRegs(num_regs)
        .seed(seed)
        .build();
}

/** Section 3.4 settings: deterministic runs, identical threads. */
MtConfig
detConfig(ArchKind arch, unsigned num_regs, uint64_t run,
          uint64_t latency, unsigned num_threads, unsigned regs_used)
{
    return SimulationSpec()
        .deterministicFaults(run, latency)
        .threads(num_threads)
        .registerDemand(regs_used)
        .arch(arch)
        .numRegs(num_regs)
        .build();
}

TEST(MtProcessor, CompletesAllThreads)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 16;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.threadsFinished, 16u);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GT(stats.usefulCycles, 0u);
}

TEST(MtProcessor, CycleAccountingPartitionsTotal)
{
    for (const ArchKind arch :
         {ArchKind::Flexible, ArchKind::FixedHw, ArchKind::AddReloc}) {
        MtConfig config = cacheConfig(arch, 128, 16.0, 200);
        config.workload.numThreads = 24;
        const MtStats stats = simulate(std::move(config));
        EXPECT_EQ(stats.accountedCycles(), stats.totalCycles)
            << "arch = " << archName(arch);
    }
}

TEST(MtProcessor, UsefulCyclesEqualTotalWork)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 8;
    config.workload.workDist = makeConstant(5000);
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.usefulCycles, 8u * 5000u);
}

TEST(MtProcessor, EfficiencyWithinUnitInterval)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 128, 32.0, 500.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_GT(stats.efficiencyCentral, 0.0);
    EXPECT_LE(stats.efficiencyCentral, 1.0);
    EXPECT_GT(stats.efficiencyTotal, 0.0);
    EXPECT_LE(stats.efficiencyTotal, 1.0);
}

// With deterministic R and L and a saturating number of contexts,
// efficiency approaches R / (R + S) (Section 3.4).
TEST(MtProcessor, SaturatedEfficiencyMatchesClosedForm)
{
    // R = 100, S = 6, L = 50: a single extra context suffices;
    // 8 contexts of 8 registers fit easily in 128 registers.
    MtConfig config = detConfig(ArchKind::Flexible, 128,
                                          100, 50, 8, 8);
    const MtStats stats = simulate(std::move(config));
    const double expected = 100.0 / (100.0 + 6.0);
    EXPECT_NEAR(stats.efficiencyCentral, expected, 0.02);
}

// One thread alone: efficiency ~ R / (R + S + L) in the linear
// regime with N = 1.
TEST(MtProcessor, SingleThreadLinearRegime)
{
    MtConfig config = detConfig(ArchKind::Flexible, 128,
                                          100, 400, 1, 8);
    const MtStats stats = simulate(std::move(config));
    const double expected = 100.0 / (100.0 + 6.0 + 400.0);
    EXPECT_NEAR(stats.efficiencyCentral, expected, 0.02);
}

TEST(MtProcessor, FlexibleBeatsFixedOnSmallContexts)
{
    // Homogeneous C = 8 on F = 64: flexible fits 8 contexts, fixed
    // only 2. Short run lengths + long latency => linear regime,
    // where residency wins (Section 3.4 discussion).
    MtConfig flexible = cacheConfig(ArchKind::Flexible, 64, 16.0, 400);
    flexible.workload = homogeneousWorkload(48, 20000, 8);
    MtConfig fixed = cacheConfig(ArchKind::FixedHw, 64, 16.0, 400);
    fixed.workload = homogeneousWorkload(48, 20000, 8);

    const MtStats fs = simulate(std::move(flexible));
    const MtStats xs = simulate(std::move(fixed));
    EXPECT_GT(fs.efficiencyCentral, 1.5 * xs.efficiencyCentral);
}

TEST(MtProcessor, ResidencyTracksRegisterFileCapacity)
{
    MtConfig config = cacheConfig(ArchKind::FixedHw, 128, 32.0, 400);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    // F = 128 / 32 regs per fixed context -> at most 4 resident.
    EXPECT_LE(stats.maxResidentContexts, 4u);
    EXPECT_GT(stats.avgResidentContexts, 0.0);
    EXPECT_LE(stats.avgResidentContexts, 4.0);
}

TEST(MtProcessor, TwoPhaseUnloadsUnderLongLatency)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 64, 32.0, 2000.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_GT(stats.unloads, 0u);
    // Every unloaded thread must be reloaded before finishing.
    EXPECT_GE(stats.loads, stats.unloads);
}

TEST(MtProcessor, NeverPolicyNeverUnloads)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 64, 8.0, 2000);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.unloads, 0u);
}

TEST(MtProcessor, DeterministicGivenSeed)
{
    MtConfig a = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    MtConfig b = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_EQ(sa.totalCycles, sb.totalCycles);
    EXPECT_EQ(sa.faults, sb.faults);
    EXPECT_DOUBLE_EQ(sa.efficiencyCentral, sb.efficiencyCentral);
}

TEST(MtProcessor, SeedChangesStochasticOutcome)
{
    MtConfig a = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    MtConfig b = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 8);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_NE(sa.totalCycles, sb.totalCycles);
}

TEST(MtProcessor, FixedArchHasZeroAllocCycles)
{
    MtConfig config = syncConfig(ArchKind::FixedHw, 128, 32.0, 500.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.allocCycles, 0u);
    EXPECT_GT(stats.loads, 0u);
}

TEST(MtProcessor, LongerLatencyLowersEfficiency)
{
    MtConfig lo = cacheConfig(ArchKind::Flexible, 128, 32.0, 50);
    MtConfig hi = cacheConfig(ArchKind::Flexible, 128, 32.0, 1600);
    const MtStats slo = simulate(std::move(lo));
    const MtStats shi = simulate(std::move(hi));
    EXPECT_GT(slo.efficiencyCentral, shi.efficiencyCentral);
}

TEST(MtProcessor, LongerRunLengthRaisesEfficiency)
{
    MtConfig lo = cacheConfig(ArchKind::Flexible, 128, 8.0, 400);
    MtConfig hi = cacheConfig(ArchKind::Flexible, 128, 128.0, 400);
    const MtStats slo = simulate(std::move(lo));
    const MtStats shi = simulate(std::move(hi));
    EXPECT_GT(shi.efficiencyCentral, slo.efficiencyCentral);
}


// Section 2.2: "separate linked lists of register relocation masks
// could be maintained to implement different thread classes or
// priorities." High-priority threads monopolize the processor
// whenever they are runnable, so they finish far earlier.
TEST(MtProcessor, PriorityClassesFinishInOrder)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 200);
    config.priorityLevels = 2;
    // 16 threads of 8 registers fill the 128-register file exactly:
    // everyone is resident, so dispatch order is purely the priority
    // rings (queue refill order plays no role).
    config.workload = homogeneousWorkload(16, 8000, 8);
    config.workload.priorityDist = makeUniformInt(0, 1);
    MtProcessor processor(std::move(config));
    processor.run();

    RunningStats high, low;
    for (const Thread &t : processor.threads()) {
        (t.priority == 0 ? high : low)
            .add(static_cast<double>(t.finishTime));
    }
    ASSERT_GT(high.count(), 0u);
    ASSERT_GT(low.count(), 0u);
    EXPECT_LT(high.max(), low.mean());
}

TEST(MtProcessor, SinglePriorityLevelUnchangedByDistribution)
{
    // With one level, priorities clamp to 0 and results match the
    // default configuration exactly.
    MtConfig a = cacheConfig(ArchKind::Flexible, 128, 32.0, 200, 3);
    a.workload.numThreads = 12;
    MtConfig b = cacheConfig(ArchKind::Flexible, 128, 32.0, 200, 3);
    b.workload.numThreads = 12;
    b.workload.priorityDist = makeUniformInt(0, 5);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_EQ(sa.totalCycles, sb.totalCycles);
}

TEST(MtProcessor, FinishTimesRecorded)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 6;
    MtProcessor processor(std::move(config));
    const MtStats stats = processor.run();
    for (const Thread &t : processor.threads()) {
        EXPECT_GT(t.finishTime, 0u);
        EXPECT_LE(t.finishTime, stats.totalCycles);
    }
}

// The completion heap must stay bounded by the thread count: at most
// one live event per thread, and every superseded event is either
// pruned at the top or compacted away. On the paper's workloads no
// event is ever stranded (pushes and pops pair exactly), so the heap
// never needs a compaction pass at all — which is itself worth
// pinning, because a compaction on these workloads would mean the
// epoch bookkeeping disagrees with the scheduler.
TEST(MtProcessor, CompletionHeapBoundedByThreadCount)
{
    for (const unsigned threads : {8u, 64u}) {
        MtConfig config =
            cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
        config.workload.numThreads = threads;
        MtProcessor processor(std::move(config));
        processor.run();
        EXPECT_LE(processor.completionCore().maxSize(), threads);
        EXPECT_EQ(processor.completionCore().compactions(), 0u);
        EXPECT_TRUE(processor.completionCore().empty());
    }
}

TEST(MtProcessor, CompletionHeapBoundedUnderSyncFaults)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 128, 32.0, 500.0);
    config.workload.numThreads = 48;
    MtProcessor processor(std::move(config));
    processor.run();
    EXPECT_LE(processor.completionCore().maxSize(), 48u);
    EXPECT_EQ(processor.completionCore().compactions(), 0u);
    EXPECT_TRUE(processor.completionCore().empty());
}

/** A FlexibleContextPolicy that counts its capacity queries. */
class CountingPolicy : public FlexibleContextPolicy
{
  public:
    CountingPolicy(unsigned *required, unsigned long long *free)
        : FlexibleContextPolicy(128, 5, 4), required_(required),
          free_(free)
    {
    }

    unsigned
    requiredSpace(unsigned regs_used) const override
    {
        ++*required_;
        return FlexibleContextPolicy::requiredSpace(regs_used);
    }

    unsigned
    freeRegs() const override
    {
        ++*free_;
        return FlexibleContextPolicy::freeRegs();
    }

  private:
    unsigned *required_;
    unsigned long long *free_;
};

// The two-phase path must not scan the threads or the queue on each
// event: requiredSpace is cached per thread, and the capacity check
// runs a bounded number of times per event whatever the thread count
// (a first-fit scan of the whole queue made it tens per event here).
TEST(MtProcessor, TwoPhaseWorkPerEventIndependentOfThreadCount)
{
    unsigned required = 0;
    unsigned long long free = 0;
    MtConfig config = SimulationSpec()
                          .syncFaults(100.0, 1000.0)
                          .threads(1024)
                          .workPerThread(2000)
                          .customPolicy([&] {
                              return std::make_unique<CountingPolicy>(
                                  &required, &free);
                          })
                          .build();
    MtProcessor processor(std::move(config));
    const MtStats stats = processor.run();
    EXPECT_EQ(stats.threadsFinished, 1024u);
    EXPECT_GT(stats.unloads, 0u);
    EXPECT_EQ(required, 1024u);
    EXPECT_LE(static_cast<double>(free),
              2.0 * static_cast<double>(processor.eventIndex()));
}

/** Priority 1 for the first thread drawn, 0 for every later one. */
class FirstThreadLow : public Distribution
{
  public:
    uint64_t sample(Rng &) const override { return drawn_++ == 0; }
    double mean() const override { return 0.0; }
    std::string describe() const override { return "first-low"; }

  private:
    mutable unsigned drawn_ = 0;
};

// Equal remaining budgets evict the lowest thread id. Four identical
// threads fill the four fixed slots; thread 0 has the low priority,
// so it runs and blocks last. No spin time passes before all four are
// blocked, so all four budgets tie, and thread 0 must go first.
TEST(MtProcessor, TwoPhaseTieEvictsLowestThreadId)
{
    trace::VectorSink sink;
    MtConfig config = SimulationSpec()
                          .deterministicFaults(50, 100000)
                          .threads(8)
                          .registerDemand(16)
                          .arch(ArchKind::FixedHw)
                          .numRegs(128)
                          .twoPhaseUnload()
                          .priorities(2, std::make_shared<FirstThreadLow>())
                          .traceSink(&sink)
                          .build();
    MtProcessor processor(std::move(config));
    processor.run();

    std::vector<unsigned> blockOrder;
    const trace::TraceEvent *decision = nullptr;
    for (const trace::TraceEvent &e : sink.events()) {
        if (e.kind == trace::EventKind::FaultIssue && blockOrder.size() < 4)
            blockOrder.push_back(e.tid);
        if (e.kind == trace::EventKind::UnloadDecision) {
            decision = &e;
            break;
        }
    }
    ASSERT_EQ(blockOrder, (std::vector<unsigned>{1, 2, 3, 0}));
    ASSERT_NE(decision, nullptr);
    EXPECT_EQ(decision->tid, 0u);
}

} // namespace
} // namespace rr::mt
