/**
 * @file
 * Interpreter-throughput microbenchmark (rrbench --perf): measures
 * Cpu::run() speed in Minstr/s on both engines — the uncached
 * reference (predecode off) and threaded superblock dispatch
 * (predecode on, docs/PERF.md) — over the examples/asm and
 * examples/os corpora plus synthetic hot loops (pure ALU, load/store,
 * and LDRRM context ping-pong, the last stressing the
 * relocation-table rebuild on every mask switch).
 *
 * Only deterministic counters (instret/cycles per repetition) go into
 * the compared table; wall-clock throughput is reported in notes,
 * which --compare ignores, so the committed baseline is stable across
 * machines. Each program additionally asserts that both engines
 * retire the identical instruction and cycle counts — the perf figure
 * doubles as an engine behaviour-neutrality check.
 *
 * Programs that leave memory untouched (verified once per program by
 * comparing post-run memory against the freshly loaded image) skip
 * the per-repetition memory clear + image reload: for the short
 * examples the 4 KiB reset would otherwise dominate the measurement
 * and the benchmark would time the harness, not the interpreter.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "exp/registry.hh"
#include "machine/cpu.hh"

namespace {

using namespace rr;

struct PerfProgram
{
    std::string name;
    assembler::Program program;
    bool example = false; ///< loaded from examples/asm, not embedded
};

// Tight ALU kernel: ten instructions per iteration, no memory.
constexpr const char *kAluLoop = R"(
entry:
    li   r1, 1500
    li   r2, 0
    li   r3, 0
    li   r4, 1
loop:
    add  r2, r2, r4
    xor  r3, r3, r2
    sll  r5, r2, r4
    srl  r6, r5, r4
    sub  r7, r6, r3
    and  r8, r7, r2
    or   r9, r8, r3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
)";

// Load/store kernel: every store invalidates a (data) cache line.
constexpr const char *kMemLoop = R"(
entry:
    li   r1, 1500
    li   r2, 256
    li   r3, 0
loop:
    st   r3, 0(r2)
    ld   r4, 0(r2)
    addi r3, r4, 1
    st   r3, 1(r2)
    ld   r5, 1(r2)
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
)";

// Context ping-pong: a mask switch every four instructions — the
// adversarial case for cached relocation, which must rebuild its
// operand table at each LDRRM retirement.
constexpr const char *kSwitchLoop = R"(
.equ CTX_A, 0x20
.equ CTX_B, 0x40
entry:
    li    r10, CTX_A
    ldrrm r10
    nop
    li    r1, 1500
    li    r2, CTX_B
    li    r10, 0
    ldrrm r10
    nop
    li    r10, CTX_B
    ldrrm r10
    nop
    li    r1, 1500
    li    r2, CTX_A
loop:
    addi  r1, r1, -1
    ldrrm r2
    nop
    bne   r1, r0, loop
    halt
)";

void
addProgram(std::vector<PerfProgram> &corpus, const std::string &name,
           const std::string &source, bool example = false)
{
    assembler::Program program = assembler::assemble(source);
    rr_assert(program.errors.empty(), "perf program '", name,
              "' failed to assemble");
    corpus.push_back({name, std::move(program), example});
}

/**
 * The .s files under examples/asm and examples/os, each directory in
 * name order, plus hot loops.
 */
std::vector<PerfProgram>
buildCorpus(exp::ReportBuilder &ctx)
{
    namespace fs = std::filesystem;
    std::vector<PerfProgram> corpus;

    for (const char *dir : {RR_EXAMPLES_ASM_DIR, RR_EXAMPLES_OS_DIR}) {
        std::vector<fs::path> files;
        std::error_code ec;
        for (const auto &it : fs::directory_iterator(dir, ec)) {
            if (it.path().extension() == ".s")
                files.push_back(it.path());
        }
        if (ec) {
            ctx.text(exp::strf("note: examples corpus unavailable "
                               "(%s); skipping it",
                               dir));
        }
        std::sort(files.begin(), files.end());
        for (const fs::path &path : files) {
            std::ifstream in(path);
            std::ostringstream source;
            source << in.rdbuf();
            addProgram(corpus, path.stem().string(), source.str(),
                       /*example=*/true);
        }
    }

    addProgram(corpus, "alu_loop", kAluLoop);
    addProgram(corpus, "mem_loop", kMemLoop);
    addProgram(corpus, "switch_loop", kSwitchLoop);
    return corpus;
}

/** One engine: CpuConfig::predecode off (reference) or on. */
struct ModeSpec
{
    const char *name;
    bool predecode;
};

constexpr ModeSpec kModes[] = {
    {"reference", false},
    {"threaded", true},
};
constexpr size_t kNumModes = std::size(kModes);
constexpr size_t kThreadedIdx = 1;

struct Measurement
{
    uint64_t instret = 0; ///< total across repetitions
    uint64_t cycles = 0;
    double seconds = 0.0;
};

constexpr uint64_t kStepCap = 1u << 22;
constexpr uint64_t kMemWords = 1u << 10;

machine::CpuConfig
configFor(const ModeSpec &mode)
{
    machine::CpuConfig config;
    // Small image: keeps per-repetition state resets cheap, so short
    // programs measure the interpreter rather than the harness.
    config.memWords = kMemWords;
    config.predecode = mode.predecode;
    return config;
}

/**
 * Does one run of @p program leave memory exactly as loaded? Such
 * programs (all the current examples: they live in registers) can be
 * re-run without the per-repetition clear + reload, which for a
 * 50-instruction program costs more than the instructions do.
 */
bool
memoryClean(const assembler::Program &program, uint32_t entry)
{
    machine::Cpu cpu(configFor(kModes[kThreadedIdx]));
    cpu.mem().clear();
    cpu.mem().loadImage(program.base, program.words);
    cpu.setRrmImmediate(0);
    cpu.setPc(entry);
    cpu.run(kStepCap);
    if (!cpu.halted())
        return false;

    machine::Memory ref(kMemWords);
    ref.clear();
    ref.loadImage(program.base, program.words);
    return std::equal(ref.data(), ref.data() + ref.size(),
                      cpu.mem().data());
}

Measurement
runMode(const assembler::Program &program, const ModeSpec &mode,
        uint32_t entry, unsigned reps, bool clean)
{
    machine::Cpu cpu(configFor(mode));
    rr_assert(cpu.predecodeActive() == mode.predecode,
              "engine activation mismatch in mode ", mode.name);

    const auto start = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep) {
        if (rep == 0 || !clean) {
            cpu.mem().clear();
            cpu.mem().loadImage(program.base, program.words);
        }
        cpu.regs().clear();
        cpu.setRrmImmediate(0);
        cpu.setPc(entry);
        cpu.resume();
        cpu.run(kStepCap);
        rr_assert(cpu.halted(), "perf program did not halt (trap: ",
                  machine::trapName(cpu.trap()), ")");
    }
    const auto stop = std::chrono::steady_clock::now();

    Measurement m;
    m.instret = cpu.instructionsRetired();
    m.cycles = cpu.cycles();
    m.seconds = std::max(
        std::chrono::duration<double>(stop - start).count(), 1e-9);
    return m;
}

/**
 * Best of @p trials timed runs per mode, interleaving the modes so
 * slow drift (frequency scaling, co-tenants) hits every mode equally.
 * The counters are deterministic — identical on every trial — so
 * keeping the fastest wall clock discards scheduler noise, not data.
 */
std::vector<Measurement>
measureMatrix(const assembler::Program &program, uint32_t entry,
              unsigned reps, bool clean, unsigned trials)
{
    std::vector<Measurement> best(kNumModes);
    for (unsigned trial = 0; trial < trials; ++trial) {
        for (size_t m = 0; m < kNumModes; ++m) {
            const Measurement t =
                runMode(program, kModes[m], entry, reps, clean);
            if (trial == 0 || t.seconds < best[m].seconds)
                best[m] = t;
        }
    }
    return best;
}

uint32_t
entryOf(const assembler::Program &program)
{
    const auto entry_sym = program.symbols.find("entry");
    return entry_sym != program.symbols.end() ? entry_sym->second
                                              : program.base;
}

double
minstrPerSec(const Measurement &m)
{
    return static_cast<double>(m.instret) / m.seconds / 1e6;
}

} // namespace

RR_PERF_FIGURE(perf_interp,
               "Interpreter throughput on both engines: uncached "
               "reference / threaded superblocks (Minstr/s)")
{
    using namespace rr;

    ctx.text("Each program runs to HALT repeatedly on both engines;\n"
             "repetition counts are derived from deterministic "
             "instruction counts,\nnever from wall time. The table "
             "holds per-repetition counters\n(machine-independent); "
             "throughput and speedup are notes.");

    std::vector<PerfProgram> corpus = buildCorpus(ctx);

    // Size every program to a common instruction budget so small
    // examples are repeated enough to time meaningfully. The rep cap
    // bounds very short programs, whose measurement beyond ~20k runs
    // only re-times the harness reset. A program whose entry halts at
    // once (a lint fixture that only declares its threads) would time
    // nothing but the harness, so it is skipped.
    const uint64_t target_instr =
        ctx.run().fast ? 150'000 : 2'000'000;
    const uint64_t rep_cap = 20'000;

    Table table({"program", "instr/rep", "cycles/rep", "reps"});
    struct Totals
    {
        double instr[kNumModes] = {};
        double secs[kNumModes] = {};
    };
    Totals all, examples;

    for (const PerfProgram &p : corpus) {
        const uint32_t entry = entryOf(p.program);
        const bool clean = memoryClean(p.program, entry);
        const Measurement probe =
            runMode(p.program, kModes[kThreadedIdx], entry, 1, clean);
        if (probe.instret <= 1) {
            ctx.text(exp::strf("%s: skipped (entry halts at once)",
                               p.name.c_str()));
            continue;
        }
        const uint64_t per_rep = probe.instret;
        const unsigned reps = static_cast<unsigned>(std::min(
            std::max<uint64_t>(target_instr / per_rep, 1), rep_cap));

        const std::vector<Measurement> legs = measureMatrix(
            p.program, entry, reps, clean, ctx.run().fast ? 4 : 5);

        // The engine must be invisible to the architecture: identical
        // retirement and cycle counts on both.
        const Measurement &threaded = legs[kThreadedIdx];
        rr_assert(threaded.instret == legs[0].instret &&
                      threaded.cycles == legs[0].cycles,
                  "engine divergence in perf program ", p.name,
                  " (threaded vs reference)");

        table.addRow({p.name, Table::num(threaded.instret / reps),
                      Table::num(threaded.cycles / reps),
                      Table::num(static_cast<uint64_t>(reps))});

        ctx.text(exp::strf(
            "%s: reference %.1f, threaded %.1f Minstr/s "
            "(threaded %.2fx reference)%s",
            p.name.c_str(), minstrPerSec(legs[0]),
            minstrPerSec(threaded),
            minstrPerSec(threaded) / minstrPerSec(legs[0]),
            clean ? "" : " [memory-dirty: full reset per rep]"));

        for (size_t m = 0; m < kNumModes; ++m) {
            all.instr[m] += static_cast<double>(legs[m].instret);
            all.secs[m] += legs[m].seconds;
            if (p.example) {
                examples.instr[m] +=
                    static_cast<double>(legs[m].instret);
                examples.secs[m] += legs[m].seconds;
            }
        }
    }
    ctx.table("corpus", "per-repetition architectural counters "
                        "(identical on both engines)",
              std::move(table));

    const auto aggregate = [&ctx](const char *label, const Totals &t) {
        if (t.secs[0] <= 0.0)
            return;
        double rate[kNumModes];
        for (size_t m = 0; m < kNumModes; ++m)
            rate[m] = t.instr[m] / std::max(t.secs[m], 1e-9) / 1e6;
        ctx.text(exp::strf("%s aggregate: reference %.1f, threaded "
                           "%.1f Minstr/s (threaded %.2fx reference)",
                           label, rate[0], rate[1],
                           rate[1] / rate[0]));
    };
    aggregate("examples corpus", examples);
    aggregate("full corpus", all);
}
