/**
 * @file
 * Tests for the all-assembly rotation runtime: every software
 * mechanism of Section 2 (Appendix A allocation/deallocation,
 * Section 2.5 unload/reload, queueing, dispatch) executing as RRISC
 * code with the C++ side only preparing initial state.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "analysis/static/lint.hh"
#include "kernel/rotation_kernel.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {
namespace {

TEST(RotationKernel, CompletesAndRestoresAllocationBitmap)
{
    RotationConfig config;
    config.numThreads = 6;
    config.segmentsPerThread = 8;
    config.workUnits = 50;
    const RotationResult result = runRotationKernel(config);

    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.allocPanic);
    // Exact work: every thread ran every unit of every segment.
    EXPECT_EQ(result.workUnits, 6u * 8u * 50u);
    // One fault per segment except the last (which retires).
    EXPECT_EQ(result.faults, 6u * 7u);
    EXPECT_EQ(result.rotations, result.faults);
    // Every context was deallocated: the bitmap is back to its
    // initial image (scheduler chunks used, the rest free).
    EXPECT_EQ(result.finalAllocMap, 0xffffff00u);
}

TEST(RotationKernel, SingleThreadRotatesThroughItself)
{
    RotationConfig config;
    config.numThreads = 1;
    config.segmentsPerThread = 5;
    config.workUnits = 30;
    const RotationResult result = runRotationKernel(config);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.workUnits, 5u * 30u);
    EXPECT_EQ(result.rotations, 4u);
}

TEST(RotationKernel, ManyThreadsStillExact)
{
    RotationConfig config;
    config.numThreads = 40; // far beyond the 24 free chunks
    config.segmentsPerThread = 3;
    config.workUnits = 20;
    const RotationResult result = runRotationKernel(config);
    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.allocPanic);
    EXPECT_EQ(result.workUnits, 40u * 3u * 20u);
    EXPECT_EQ(result.finalAllocMap, 0xffffff00u);
}

TEST(RotationKernel, OverheadAmortizesWithSegmentLength)
{
    RotationConfig coarse;
    coarse.numThreads = 4;
    coarse.segmentsPerThread = 6;
    coarse.workUnits = 400;
    RotationConfig fine = coarse;
    fine.workUnits = 20;
    const RotationResult rc = runRotationKernel(coarse);
    const RotationResult rf = runRotationKernel(fine);
    EXPECT_GT(rc.efficiency(), rf.efficiency());
    EXPECT_GT(rc.efficiency(), 0.85);
}

TEST(RotationKernel, PerRotationOverheadWithinBudget)
{
    // Per segment: 2 * workUnits useful + the full software path
    // (fault, unload, mailbox, scheduler, dealloc, dequeue, alloc,
    // reload, resume). That path is ~70-85 cycles — remarkable for a
    // complete dynamic runtime, and the reason software management
    // is viable at all (Section 2).
    RotationConfig config;
    config.numThreads = 4;
    config.segmentsPerThread = 10;
    config.workUnits = 50;
    const RotationResult result = runRotationKernel(config);
    ASSERT_TRUE(result.halted);
    const double overhead_per_segment =
        static_cast<double>(result.totalCycles -
                            result.usefulCycles) /
        static_cast<double>(4 * 10);
    EXPECT_GE(overhead_per_segment, 40.0);
    EXPECT_LE(overhead_per_segment, 95.0);
}

// rrlint (Section 2.4) proves the runtime honours its own context
// sizes: thread-side code addresses exactly r0..r7, the scheduler and
// its allocators fit the 32-register scheduler context.
TEST(RotationKernel, RuntimeRespectsDeclaredContextBounds)
{
    const auto prog = assembler::assemble(
        runtime::rotationSchedulerSource(50));
    ASSERT_TRUE(prog.ok());

    // The flat check is per instruction, so boundary findings inside
    // an address range are that range's violations. Thread code and
    // the reload that runs inside the target context must fit 8
    // registers; the thread code needs all 8 (it fails at 4).
    const auto boundaryFindingsIn =
        [&](unsigned declared, uint32_t begin, uint32_t end) {
            lint::LintOptions options;
            options.declaredContext = declared;
            options.flowSensitive = false;
            std::vector<lint::Finding> out;
            for (const auto &f : lint::lintProgram(prog, options).findings) {
                if (f.address >= begin && f.address < end)
                    out.push_back(f);
            }
            return out;
        };
    const uint32_t thread_begin = prog.addressOf("thread_start");
    const uint32_t thread_end = prog.addressOf("sched_rotate");
    const uint32_t sched_begin = prog.addressOf("sched_rotate");
    const uint32_t sched_end = prog.addressOf("boot");
    const uint32_t boot_begin = prog.addressOf("boot");
    const uint32_t boot_end = prog.addressOf("ctx_alloc8");
    const uint32_t alloc_begin = prog.addressOf("ctx_alloc8");
    const auto image_end = static_cast<uint32_t>(
        prog.base + prog.words.size());
    struct Region
    {
        uint32_t begin, end;
        unsigned context;
    };
    for (const Region &region :
         {Region{thread_begin, thread_end, 8},  // thread contexts
          Region{boot_begin, boot_end, 8},      // reload runs in target
          Region{sched_begin, sched_end, 32},   // scheduler context
          Region{alloc_begin, image_end, 32}}) { // allocators
        for (const auto &finding :
             boundaryFindingsIn(region.context, region.begin, region.end))
            ADD_FAILURE() << finding.str();
    }
    EXPECT_FALSE(boundaryFindingsIn(4, thread_begin, thread_end).empty());
    // The scheduler genuinely uses registers beyond a thread context,
    // so the 32-register check above is not vacuous.
    EXPECT_FALSE(boundaryFindingsIn(8, sched_begin, sched_end).empty());

    // The same bound per procedure: each one's transitive register
    // requirement fits the 32-register scheduler context.
    lint::LintOptions options;
    options.interprocedural = true;
    const lint::LintResult result = lint::lintProgram(prog, options);
    EXPECT_TRUE(result.clean());
    unsigned checked = 0;
    for (const auto &proc : result.procedures) {
        if (proc.name == "entry" || proc.name == "ctx_alloc8" ||
            proc.name == "ctx_dealloc") {
            EXPECT_LE(proc.minContext, 32u) << proc.name;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 3u);
}

TEST(RotationKernel, SaveAreasHoldFinalThreadState)
{
    RotationConfig config;
    config.numThreads = 3;
    config.segmentsPerThread = 4;
    config.workUnits = 25;
    RotationKernel kernel(config);
    const RotationResult result = kernel.run();
    ASSERT_TRUE(result.halted);
    for (unsigned tid = 0; tid < 3; ++tid) {
        const uint64_t area = kernel.saveAreaOf(tid);
        // The last save happened entering the final segment: one
        // segment remained (r6 slot == 1).
        EXPECT_EQ(kernel.cpu().mem().read(area + 4), 1u)
            << "tid " << tid;
        // r7 image stays the constant zero.
        EXPECT_EQ(kernel.cpu().mem().read(area + 5), 0u);
    }
}

} // namespace
} // namespace rr::kernel
