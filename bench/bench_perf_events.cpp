/**
 * @file
 * Event-simulator throughput microbenchmark (rrbench --perf):
 * measures mt::MtProcessor event processing in Mevents/s over
 * Figure 5-style (cache faults, never unload) and Figure 6-style
 * (sync faults, two-phase unload) scenarios, and reports the
 * completion-heap high-water mark from the zero-allocation EventCore.
 * The Figure 6 scenario runs again at 1024 threads, and a note
 * compares its host ns/event with the small run's, so a per-event
 * cost that grows with the thread count shows up next to the totals.
 *
 * As in bench_perf_interp, only deterministic counters enter the
 * compared table — total cycles, event counts, and the heap bound,
 * all fixed by the seed — while wall-clock throughput lives in notes
 * that --compare ignores.
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "base/table.hh"
#include "exp/registry.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"

namespace {

using namespace rr;

/** Fault completions plus every charged allocator/loader action. */
uint64_t
eventCount(const mt::MtStats &stats)
{
    return 2 * stats.faults + stats.loads + stats.unloads +
           stats.allocSuccesses + stats.allocFailures +
           stats.threadsFinished;
}

struct Scenario
{
    std::string name;
    mt::MtConfig config;
    unsigned reps;
};

/** The Figure 6-style scenario: sync faults, two-phase unloading. */
mt::MtConfig
syncTwoPhase(unsigned threads)
{
    return mt::SimulationSpec()
        .threads(threads)
        .workPerThread(40'000)
        .registerDemand(8, 24)
        .syncFaults(100.0, 1'000.0)
        .twoPhaseUnload()
        .seed(1)
        .build();
}

} // namespace

RR_PERF_FIGURE(perf_events,
               "Event-simulator throughput: completion heap and "
               "scheduler loop (Mevents/s)")
{
    using namespace rr;

    const unsigned threads = ctx.run().fast ? 48 : 96;
    const unsigned reps = ctx.run().fast ? 3 : 10;
    constexpr unsigned kManyThreads = 1024;

    ctx.text(exp::strf("Each scenario simulates %u threads to "
                       "completion %u times per seed (the last one "
                       "%u threads, once); the table carries "
                       "seed-determined totals (cycles, events, heap "
                       "high-water mark), the notes wall-clock "
                       "throughput.",
                       threads, reps, kManyThreads));

    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"fig5_cache_never",
         mt::SimulationSpec()
             .threads(threads)
             .workPerThread(40'000)
             .registerDemand(8, 24)
             .cacheFaults(50.0, 200)
             .neverUnload()
             .seed(1)
             .build(),
         reps});
    scenarios.push_back(
        {"fig6_sync_twophase", syncTwoPhase(threads), reps});
    scenarios.push_back({"fig6_sync_twophase_t1024",
                         syncTwoPhase(kManyThreads), 1});

    Table table({"scenario", "cycles", "events", "faults", "loads",
                 "unloads", "heap max"});
    double total_events = 0.0, total_secs = 0.0;
    double sync_ns_per_event[2] = {0.0, 0.0}; // few threads, many

    for (const Scenario &scenario : scenarios) {
        const unsigned reps = scenario.reps;
        const unsigned supply = scenario.config.workload.numThreads;
        mt::MtStats stats;
        std::size_t heap_max = 0;
        const auto start = std::chrono::steady_clock::now();
        for (unsigned rep = 0; rep < reps; ++rep) {
            mt::MtProcessor processor(scenario.config);
            stats = processor.run();
            heap_max = processor.completionCore().maxSize();
        }
        const auto stop = std::chrono::steady_clock::now();
        const double secs = std::max(
            std::chrono::duration<double>(stop - start).count(),
            1e-9);

        const uint64_t events = eventCount(stats);
        table.addRow({scenario.name, Table::num(stats.totalCycles),
                      Table::num(events), Table::num(stats.faults),
                      Table::num(stats.loads),
                      Table::num(stats.unloads),
                      Table::num(static_cast<uint64_t>(heap_max))});

        const double mevents =
            static_cast<double>(events) * reps / secs / 1e6;
        ctx.text(exp::strf("%s: %.2f Mevents/s (heap never exceeded "
                           "%u entries for %u threads)",
                           scenario.name.c_str(), mevents,
                           static_cast<unsigned>(heap_max), supply));

        total_events += static_cast<double>(events) * reps;
        total_secs += secs;
        if (scenario.name.rfind("fig6_sync_twophase", 0) == 0)
            sync_ns_per_event[supply == kManyThreads] =
                secs * 1e9 / (static_cast<double>(events) * reps);
    }
    ctx.table("scenarios", "seed-determined totals per scenario "
                           "(identical on every machine)",
              std::move(table));

    ctx.text(exp::strf("aggregate: %.2f Mevents/s",
                       total_events / total_secs / 1e6));
    ctx.text(exp::strf("fig6_sync_twophase host cost: %.0f ns/event at "
                       "%u threads, %.0f ns/event at %u threads (%.2fx; "
                       "flat when per-event work is independent of the "
                       "thread count)",
                       sync_ns_per_event[0], threads,
                       sync_ns_per_event[1], kManyThreads,
                       sync_ns_per_event[1] / sync_ns_per_event[0]));
}
