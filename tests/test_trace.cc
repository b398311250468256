/**
 * @file
 * Tests for the structured event-trace subsystem (src/trace/): the
 * sinks, the JSONL serialization, the Chrome trace_event exporter,
 * the cycle-conservation auditor (including a deliberately
 * mis-charged cost model it must catch), and the event emission of
 * both the event-driven MT simulator and the machine-level kernels.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json_in.hh"
#include "kernel/machine_mt_kernel.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "trace/audit.hh"
#include "trace/chrome_export.hh"
#include "trace/sink.hh"

namespace rr {
namespace {

trace::TraceEvent
makeEvent(trace::EventKind kind, uint64_t cycle, uint64_t cycles = 0)
{
    trace::TraceEvent event;
    event.kind = kind;
    event.cycle = cycle;
    event.cycles = cycles;
    return event;
}

/** A small, fast Figure 5 style configuration. */
mt::MtConfig
smallConfig(mt::ArchKind arch, bool sync)
{
    mt::SimulationSpec spec;
    if (sync)
        spec.syncFaults(32.0, 400.0);
    else
        spec.cacheFaults(16.0, 200);
    return spec.arch(arch)
        .numRegs(128)
        .threads(12)
        .workPerThread(4000)
        .seed(7)
        .build();
}

TEST(RingBufferSink, KeepsMostRecentAndCountsDropped)
{
    trace::RingBufferSink ring(4);
    for (uint64_t i = 0; i < 10; ++i)
        ring.emit(makeEvent(trace::EventKind::RunSegment, i));
    EXPECT_EQ(ring.emitted(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    const std::vector<trace::TraceEvent> kept = ring.snapshot();
    ASSERT_EQ(kept.size(), 4u);
    // Oldest first: cycles 6, 7, 8, 9.
    for (std::size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i].cycle, 6u + i);
}

TEST(RingBufferSink, PartiallyFilledSnapshotIsInOrder)
{
    trace::RingBufferSink ring(8);
    for (uint64_t i = 0; i < 3; ++i)
        ring.emit(makeEvent(trace::EventKind::Switch, i, 6));
    EXPECT_EQ(ring.dropped(), 0u);
    const auto kept = ring.snapshot();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].cycle, 0u);
    EXPECT_EQ(kept[2].cycle, 2u);
}

TEST(StreamJsonSink, EmitsHeaderAndParseableLines)
{
    std::ostringstream out;
    trace::StreamJsonSink sink(out);

    trace::TraceEvent alloc = makeEvent(trace::EventKind::Alloc, 25,
                                        25);
    alloc.tid = 3;
    alloc.ctx = 16;
    alloc.ok = true;
    sink.emit(alloc);

    trace::TraceEvent fault =
        makeEvent(trace::EventKind::FaultIssue, 100);
    fault.tid = 3;
    fault.aux = 250;
    sink.emit(fault);
    sink.flush();
    EXPECT_EQ(sink.emitted(), 2u);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> all;
    while (std::getline(lines, line))
        all.push_back(line);
    ASSERT_EQ(all.size(), 3u);

    // Header carries the schema id; every line is valid JSON.
    std::string error;
    const auto header = exp::parseJson(all[0], &error);
    ASSERT_TRUE(header.has_value()) << error;
    EXPECT_EQ(header->stringOr("schema", ""), "rr.trace.v1");

    const auto first = exp::parseJson(all[1], &error);
    ASSERT_TRUE(first.has_value()) << error;
    EXPECT_EQ(first->stringOr("ev", ""), "alloc");
    EXPECT_DOUBLE_EQ(first->numberOr("cycle", -1), 25.0);
    EXPECT_DOUBLE_EQ(first->numberOr("tid", -1), 3.0);

    const auto second = exp::parseJson(all[2], &error);
    ASSERT_TRUE(second.has_value()) << error;
    EXPECT_EQ(second->stringOr("ev", ""), "fault_issue");
    EXPECT_DOUBLE_EQ(second->numberOr("aux", -1), 250.0);
}

TEST(TeeSink, ToleratesNullBranchesAndDuplicates)
{
    trace::VectorSink a;
    trace::VectorSink b;
    trace::TeeSink both(&a, &b);
    both.emit(makeEvent(trace::EventKind::Queue, 10, 10));
    EXPECT_EQ(a.events().size(), 1u);
    EXPECT_EQ(b.events().size(), 1u);

    trace::TeeSink half(nullptr, &a);
    half.emit(makeEvent(trace::EventKind::Queue, 20, 10));
    half.flush();
    EXPECT_EQ(a.events().size(), 2u);
}

// The conservation contract, end to end: for both fault processes
// and all architectures, the trace the simulator emits reconciles
// exactly with the statistics it reports.
TEST(Audit, EventSimulatorConservesCycles)
{
    for (const bool sync : {false, true}) {
        for (const mt::ArchKind arch :
             {mt::ArchKind::Flexible, mt::ArchKind::FixedHw,
              mt::ArchKind::AddReloc}) {
            mt::MtConfig config = smallConfig(arch, sync);
            trace::TraceAuditor auditor(config.costs);
            config.traceSink = &auditor;
            const mt::MtStats stats = mt::simulate(config);
            EXPECT_GT(auditor.eventsSeen(), 0u);
            const std::vector<std::string> problems =
                auditor.reconcile(mt::auditTotals(stats));
            EXPECT_TRUE(problems.empty())
                << "arch " << mt::archName(arch) << " sync " << sync
                << ": " << problems.front();
        }
    }
}

TEST(Audit, TwoPhaseUnloadingConservesCycles)
{
    mt::MtConfig config = mt::SimulationSpec()
                              .syncFaults(24.0, 600.0)
                              .arch(mt::ArchKind::Flexible)
                              .numRegs(64)
                              .threads(16)
                              .workPerThread(3000)
                              .seed(3)
                              .build();
    ASSERT_EQ(config.unloadPolicy, mt::UnloadPolicyKind::TwoPhase);
    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);
    EXPECT_GT(stats.unloads, 0u);
    const auto problems = auditor.reconcile(mt::auditTotals(stats));
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
}

// An auditor built on the WRONG cost model must report the
// mis-charge: every Figure 4 charge is checked against the model,
// not just summed.
TEST(Audit, CatchesMischargedCosts)
{
    mt::MtConfig config =
        smallConfig(mt::ArchKind::Flexible, false);
    runtime::CostModel wrong = config.costs;
    wrong.allocSucceed += 3;
    trace::TraceAuditor auditor(wrong);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);
    ASSERT_GT(stats.allocSuccesses, 0u);
    const auto problems = auditor.reconcile(mt::auditTotals(stats));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("alloc"), std::string::npos);
}

// Every streaming problem, pinned to its exact text from a hand-built
// event sequence. Distinct costs make each mis-charge unambiguous.
runtime::CostModel
auditCosts()
{
    runtime::CostModel costs;
    costs.allocSucceed = 11;
    costs.allocFail = 5;
    costs.dealloc = 3;
    costs.queueOp = 10;
    costs.blockOverhead = 10;
    costs.contextSwitch = 6;
    return costs;
}

/** A correctly charged event of @p kind for thread @p tid. */
trace::TraceEvent
charged(trace::EventKind kind, uint32_t tid, uint64_t cycle,
        uint64_t aux = 0)
{
    const runtime::CostModel costs = auditCosts();
    trace::TraceEvent event = makeEvent(kind, cycle);
    event.tid = tid;
    event.regs = 8;
    event.aux = aux;
    switch (kind) {
      case trace::EventKind::Alloc: event.cycles = costs.allocSucceed; break;
      case trace::EventKind::Free: event.cycles = costs.dealloc; break;
      case trace::EventKind::Load: event.cycles = costs.loadCost(8); break;
      case trace::EventKind::Unload:
        event.cycles = costs.unloadCost(8);
        break;
      case trace::EventKind::Switch: event.cycles = costs.contextSwitch; break;
      case trace::EventKind::Queue: event.cycles = costs.queueOp; break;
      default: break;
    }
    return event;
}

std::vector<std::string>
streamingProblems(const std::vector<trace::TraceEvent> &events)
{
    trace::TraceAuditor auditor(auditCosts());
    for (const trace::TraceEvent &event : events)
        auditor.emit(event);
    return auditor.problems();
}

using Texts = std::vector<std::string>;

TEST(AuditText, OrderingProblems)
{
    using trace::EventKind;
    constexpr uint32_t kNone = trace::TraceEvent::kNoThread;
    EXPECT_EQ(streamingProblems({charged(EventKind::RunSegment, kNone, 10),
                                 charged(EventKind::RunSegment, kNone, 5)}),
              Texts{"time went backwards: event 'run' ends at 5 after "
                    "an event ending at 10"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Switch, kNone, 4)}),
              Texts{"event 'switch' spans 6 cycles but ends at 4"});
}

TEST(AuditText, LifecycleProblems)
{
    using trace::EventKind;
    constexpr uint32_t kNone = trace::TraceEvent::kNoThread;
    constexpr uint64_t kFinished = trace::TraceEvent::kFreeFinished;
    constexpr uint64_t kEvicted = trace::TraceEvent::kFreeEvicted;

    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, kNone, 20)}),
              Texts{"alloc with no thread at cycle 20"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 3, 20),
                                 charged(EventKind::Alloc, 3, 40)}),
              Texts{"tid 3 allocated twice without a free (cycle 40)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Load, 4, 30)}),
              Texts{"tid 4 loaded without an allocation (cycle 30)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 5, 20),
                                 charged(EventKind::Load, 5, 40),
                                 charged(EventKind::Load, 5, 60)}),
              Texts{"tid 5 loaded twice without an unload (cycle 60)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 6, 20),
                                 charged(EventKind::Unload, 6, 40)}),
              Texts{"tid 6 unloaded while not loaded (cycle 40)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Free, 7, 20, kEvicted)}),
              Texts{"tid 7 freed while not allocated (cycle 20)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 8, 20),
                                 charged(EventKind::Free, 8, 40, kFinished)}),
              Texts{"tid 8 finished without a loaded context (cycle 40)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 9, 20),
                                 charged(EventKind::Load, 9, 40),
                                 charged(EventKind::Free, 9, 60, kEvicted)}),
              Texts{"tid 9 evicted without paying an unload (cycle 60)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::RunSegment, 10, 20)}),
              Texts{"tid 10 ran without a loaded context (cycle 20)"});

    // A clean lifecycle, for contrast, records nothing.
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 1, 20),
                                 charged(EventKind::Load, 1, 40),
                                 charged(EventKind::RunSegment, 1, 50),
                                 charged(EventKind::Unload, 1, 70),
                                 charged(EventKind::Free, 1, 80, kEvicted),
                                 charged(EventKind::Alloc, 1, 100),
                                 charged(EventKind::Load, 1, 120),
                                 charged(EventKind::Free, 1, 130, kFinished)}),
              Texts{});
}

TEST(AuditText, EveryMischargedKind)
{
    using trace::EventKind;
    constexpr uint32_t kNone = trace::TraceEvent::kNoThread;
    const auto off = [](trace::TraceEvent event) {
        ++event.cycles;
        return event;
    };
    trace::TraceEvent failed = charged(EventKind::Alloc, kNone, 100);
    failed.ok = false;
    failed.cycles = 6;

    EXPECT_EQ(streamingProblems({off(charged(EventKind::Alloc, 1, 100))}),
              Texts{"successful alloc charged 12 cycles, cost model says "
                    "11 (cycle 100, tid 1)"});
    EXPECT_EQ(streamingProblems({failed}),
              Texts{"failed alloc charged 6 cycles, cost model says 5 "
                    "(cycle 100)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 2, 20),
                                 off(charged(EventKind::Load, 2, 100))}),
              Texts{"load charged 19 cycles, cost model says 18 (cycle "
                    "100, tid 2)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 2, 20),
                                 charged(EventKind::Load, 2, 40),
                                 off(charged(EventKind::Unload, 2, 100))}),
              Texts{"unload charged 19 cycles, cost model says 18 (cycle "
                    "100, tid 2)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 2, 20),
                                 off(charged(EventKind::Free, 2, 100))}),
              Texts{"free charged 4 cycles, cost model says 3 (cycle "
                    "100, tid 2)"});
    EXPECT_EQ(streamingProblems({off(charged(EventKind::Switch, kNone, 100))}),
              Texts{"context switch charged 7 cycles, cost model says 6 "
                    "(cycle 100)"});
    EXPECT_EQ(streamingProblems({off(charged(EventKind::Queue, 4, 100))}),
              Texts{"queue operation charged 11 cycles, cost model says "
                    "10 (cycle 100, tid 4)"});
}

// One event breaking every rule at once reports in a fixed order:
// time, span, charge, then the thread's lifecycle.
TEST(AuditText, ProblemsOfOneEventKeepTheirOrder)
{
    using trace::EventKind;
    trace::TraceEvent bad = charged(EventKind::Load, 12, 5);
    bad.cycles = 30;
    EXPECT_EQ(streamingProblems({charged(EventKind::RunSegment,
                                         trace::TraceEvent::kNoThread, 50),
                                 bad}),
              (Texts{"time went backwards: event 'load' ends at 5 after "
                     "an event ending at 50",
                     "event 'load' spans 30 cycles but ends at 5",
                     "load charged 30 cycles, cost model says 18 (cycle "
                     "5, tid 12)",
                     "tid 12 loaded without an allocation (cycle 5)"}));
}

TEST(AuditText, ProblemsPastTheCapAreCountedAndHeldContextsNamed)
{
    using trace::EventKind;
    trace::TraceAuditor auditor(auditCosts());
    // 41 events with falling end times: 40 problems, 32 kept.
    for (uint64_t i = 0; i <= 40; ++i)
        auditor.emit(charged(EventKind::RunSegment,
                             trace::TraceEvent::kNoThread, 1000 - i));
    ASSERT_EQ(auditor.problems().size(), 32u);
    EXPECT_EQ(auditor.problems().back(),
              "time went backwards: event 'run' ends at 968 after an "
              "event ending at 969");

    std::vector<std::string> all = auditor.reconcile(trace::AuditTotals{});
    ASSERT_EQ(all.size(), 33u);
    EXPECT_EQ(all.back(), "... and 8 more streaming problems");

    auditor.emit(charged(EventKind::Alloc, 21, 2000));
    trace::AuditTotals totals;
    totals.allocCycles = totals.totalCycles = 11;
    totals.allocSuccesses = 1;
    all = auditor.reconcile(totals);
    ASSERT_EQ(all.size(), 35u);
    EXPECT_EQ(all[33], "frees: trace 0 != stats 1");
    EXPECT_EQ(all[34], "tid 21 still holds an allocated context at end "
                       "of trace");
}

// Tracing must not change a single digit of any result: the sink
// observes charges that are made regardless.
TEST(Trace, AttachingASinkIsBehaviorNeutral)
{
    mt::MtConfig plain = smallConfig(mt::ArchKind::Flexible, true);
    const mt::MtStats expected = mt::simulate(plain);

    mt::MtConfig traced = smallConfig(mt::ArchKind::Flexible, true);
    trace::VectorSink sink;
    traced.traceSink = &sink;
    const mt::MtStats observed = mt::simulate(traced);

    EXPECT_GT(sink.events().size(), 0u);
    EXPECT_EQ(observed.totalCycles, expected.totalCycles);
    EXPECT_EQ(observed.usefulCycles, expected.usefulCycles);
    EXPECT_EQ(observed.idleCycles, expected.idleCycles);
    EXPECT_EQ(observed.faults, expected.faults);
    EXPECT_DOUBLE_EQ(observed.efficiencyCentral,
                     expected.efficiencyCentral);
}

TEST(Trace, EventsArriveInSimulationOrder)
{
    mt::MtConfig config = smallConfig(mt::ArchKind::Flexible, false);
    trace::VectorSink sink;
    config.traceSink = &sink;
    mt::simulate(config);
    ASSERT_GT(sink.events().size(), 2u);
    uint64_t last = 0;
    for (const trace::TraceEvent &event : sink.events()) {
        EXPECT_GE(event.cycle, last);
        EXPECT_LE(event.cycles, event.cycle);
        last = event.cycle;
    }
}

TEST(ChromeExport, ProducesValidViewerDocument)
{
    mt::MtConfig config = smallConfig(mt::ArchKind::Flexible, false);
    trace::VectorSink sink;
    config.traceSink = &sink;
    mt::simulate(config);

    trace::ChromeStream stream;
    stream.process = "flexible";
    stream.events = sink.events();
    const std::string doc = trace::exportChromeTrace({stream});

    std::string error;
    const auto parsed = exp::parseJson(doc, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const exp::JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->elements.size(), 2u);

    // First records are process/thread metadata; the body must
    // contain both complete slices and instants on pid 1.
    EXPECT_EQ(events->elements[0].stringOr("ph", ""), "M");
    bool slices = false;
    bool instants = false;
    for (const exp::JsonValue &event : events->elements) {
        const std::string ph = event.stringOr("ph", "");
        slices = slices || ph == "X";
        instants = instants || ph == "i";
        if (ph == "X") {
            EXPECT_GE(event.numberOr("dur", -1.0), 0.0);
        }
    }
    EXPECT_TRUE(slices);
    EXPECT_TRUE(instants);
}

TEST(ChromeExport, TruncationIsVisible)
{
    trace::ChromeStream stream;
    stream.process = "flexible";
    stream.dropped = 123;
    stream.events = {makeEvent(trace::EventKind::RunSegment, 5, 5)};
    const std::string doc = trace::exportChromeTrace({stream});
    EXPECT_NE(doc.find("truncated"), std::string::npos);
    EXPECT_NE(doc.find("123"), std::string::npos);
}

// The machine-level kernel emits matching issue/completion pairs
// with machine-cycle stamps.
TEST(KernelTrace, MachineKernelEmitsFaultPairs)
{
    kernel::KernelConfig config;
    config.numThreads = 4;
    config.segmentUnits = makeConstant(40);
    config.latency = makeConstant(300);
    config.segmentsPerThread = 8;
    trace::VectorSink sink;
    config.traceSink = &sink;
    const kernel::KernelResult result =
        kernel::runMachineKernel(config);
    ASSERT_TRUE(result.halted);

    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t polls = 0;
    for (const trace::TraceEvent &event : sink.events()) {
        if (event.kind == trace::EventKind::FaultIssue)
            ++issued;
        else if (event.kind == trace::EventKind::FaultComplete)
            ++completed;
        else if (event.kind == trace::EventKind::SchedulerPoll)
            ++polls;
    }
    EXPECT_EQ(issued, result.faults);
    EXPECT_EQ(completed, result.faults);
    EXPECT_EQ(polls, result.failedPolls);
}

TEST(KernelTrace, BarrierModeEmitsBarrierReleases)
{
    kernel::KernelConfig config;
    config.numThreads = 4;
    config.segmentUnits = makeGeometric(24.0);
    config.service = kernel::FaultService::Barrier;
    config.segmentsPerThread = 6;
    trace::VectorSink sink;
    config.traceSink = &sink;
    const kernel::KernelResult result =
        kernel::runMachineKernel(config);
    ASSERT_TRUE(result.halted);
    uint64_t barriers = 0;
    for (const trace::TraceEvent &event : sink.events())
        if (event.kind == trace::EventKind::Barrier)
            ++barriers;
    EXPECT_EQ(barriers, result.barriers);
    EXPECT_GT(barriers, 0u);
}

} // namespace
} // namespace rr
