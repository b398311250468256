/**
 * @file
 * rrisc_mix: RRISC programs assembled from seeded sources and run on
 * machine::Cpu, in two halves that use the machine layer in opposite
 * ways. Units of the two halves alternate.
 *
 *  - Free-running: Cpu::run under the default dispatch, over the
 *    examples/os programs (their iteration constants drawn from
 *    the seed) and seeded hot loops (ALU, load/store, LDRRM context
 *    ping-pong), each retiring hundreds of thousands to millions of
 *    instructions. Each unit assembles its source and loads it.
 *  - Hooked: the four runtime::SyncScenario programs through
 *    kernel::SyncWorkloadKernel at flexible 8x16 and fixed 4x32
 *    contexts, as fig_contention runs them but larger: a per-
 *    instruction trace hook and FAULT-heavy spin loops.
 *
 * This is the only workload that exercises the assembler, the
 * dispatch engines, the relocation tables and the kernel.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>

#include "assembler/assembler.hh"
#include "kernel/sync_workload.hh"
#include "machine/cpu.hh"

#include "harness.hh"

namespace rrperf {

namespace {

using namespace rr;

/**
 * Every unit must retire at least this many instructions and halt
 * cleanly: a program that halts at once measures nothing.
 */
constexpr uint64_t kMinInstructions = 10'000;

constexpr uint64_t kStepCap = uint64_t{1} << 32;

/**
 * A seeded count for an `li` immediate. The assembler aborts on `li`
 * values whose low 12 bits are 0x800..0xfff (the split into LUI plus
 * a signed 12-bit add is not compensated), so counts stay outside
 * that band.
 */
uint64_t
liCount(InputRng &rng, uint64_t lo_4k, uint64_t hi_4k)
{
    return 4096 * rng.range(lo_4k, hi_4k) + rng.range(0, 2047);
}

// ALU kernel: nine instructions per inner iteration, no memory.
constexpr const char *kAluLoop = R"(
entry:
    li   r11, OUTER
    li   r2, 0
    li   r3, 0
    li   r4, 1
outer:
    li   r1, INNER
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
    addi r11, r11, -1
    bne  r11, r0, outer
    halt
)";

// Load/store kernel: r3 counts iterations through memory.
constexpr const char *kMemLoop = R"(
entry:
    li   r11, OUTER
    li   r2, 256
    li   r3, 0
outer:
    li   r1, INNER
loop:
    st   r3, 0(r2)
    ld   r4, 0(r2)
    addi r3, r4, 1
    st   r3, 1(r2)
    ld   r5, 1(r2)
    addi r1, r1, -1
    bne  r1, r0, loop
    addi r11, r11, -1
    bne  r11, r0, outer
    halt
)";

// Context ping-pong: a mask switch every four instructions, so the
// relocation table is rebuilt at each LDRRM retirement.
constexpr const char *kSwitchLoop = R"(
.equ CTX_A, 0x20
.equ CTX_B, 0x40
entry:
    li    r10, CTX_A
    ldrrm r10
    nop
    li    r1, INNER
    li    r2, CTX_B
    li    r10, 0
    ldrrm r10
    nop
    li    r10, CTX_B
    ldrrm r10
    nop
    li    r1, INNER
    li    r2, CTX_A
loop:
    addi  r1, r1, -1
    ldrrm r2
    nop
    bne   r1, r0, loop
    halt
)";

/** Set the value of `.equ NAME, ...`, or replace the bare token NAME. */
std::string
setConstant(const std::string &source, const std::string &name,
            uint64_t value)
{
    std::smatch m;
    const std::regex equ("(\\.equ\\s+" + name + "\\s*,\\s*)\\w+");
    if (std::regex_search(source, m, equ))
        return m.prefix().str() + m[1].str() + std::to_string(value) +
               m.suffix().str();
    return std::regex_replace(source, std::regex("\\b" + name + "\\b"),
                              std::to_string(value));
}

struct FreeUnit
{
    std::string name;
    std::string source;
    enum class Check : uint8_t { None, Alu, Mem, Convoy } check =
        Check::None;
    uint64_t iterations = 0; ///< expected loop count for the check
};

struct HookedUnit
{
    runtime::SyncScenario scenario;
    bool flexible = true;
    unsigned rounds = 0;
    unsigned items = 0;
};

/** Per-window sums of the machine and kernel counters. */
struct MachineTotals
{
    double freeInstr = 0, freeNs = 0, hookedInstr = 0, hookedNs = 0;
    double sbBuilt = 0, sbFlushes = 0, sbReverified = 0;
    double failedPolls = 0, faults = 0, lockSpins = 0, lockAcquires = 0;
    double words = 0; ///< assembled program words
};

class RriscMix : public Workload
{
  public:
    explicit RriscMix(const Options &options) : options_(options) {}

    void
    setup() override
    {
        makeUnits(options_.seed, free_, hooked_);
        digests_.assign(free_.size() + hooked_.size(), 0);
        pos_ = 0;
        // Warm-up: the first variant of every program, untimed.
        Spans off;
        MachineTotals t;
        for (std::size_t i = 0; i < 6 && i < free_.size(); ++i)
            runFree(free_[i], off, t);
        for (std::size_t i = 0; i < 8 && i < hooked_.size(); ++i)
            runHooked(hooked_[i], off, t);
    }

    Window
    window(double seconds, Spans &spans, Layers &layers) override
    {
        Window w;
        const bool traced = spans.enabled();
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        MachineTotals t;
        std::vector<UnitSample> samples;
        const std::size_t total = free_.size() + hooked_.size();

        while (pos_ != 0 || windowDigest == 0 || nowNs() < deadline) {
            const uint64_t u0 = nowNs();
            const double instr0 = t.freeInstr + t.hookedInstr;
            // Alternate halves: even positions free, odd hooked, the
            // longer list's tail after the shorter one runs out.
            const auto [is_free, index] = slot(pos_);
            const uint64_t digest =
                is_free ? runFree(free_[index], spans, t)
                        : runHooked(hooked_[index], spans, t);
            const uint64_t u1 = nowNs();
            samples.push_back({pos_, static_cast<double>(u1 - u0) * 1e-6,
                               t.freeInstr + t.hookedInstr - instr0});
            digests_[pos_] = digest;
            if (++pos_ == total) {
                pos_ = 0;
                closePass(digests_, "rrisc_mix");
            }
        }
        w.seconds = static_cast<double>(nowNs() - start) * 1e-9;
        summarizeBatch(w, samples);
        w.named["run_minstr_per_s"] = t.freeInstr / t.freeNs * 1e3;
        w.named["hooked_minstr_per_s"] = t.hookedInstr / t.hookedNs * 1e3;

        if (!traced) {
            layers["machine.superblocks_built"] = t.sbBuilt;
            layers["machine.superblock_flushes"] = t.sbFlushes;
            layers["machine.superblocks_reverified"] = t.sbReverified;
            layers["machine.instr_per_block_built"] =
                t.sbBuilt == 0 ? 0.0 : t.freeInstr / t.sbBuilt;
            layers["kernel.failed_poll_ratio"] =
                t.failedPolls / (t.failedPolls + t.faults);
            layers["kernel.lock_spin_ratio"] =
                t.lockSpins / (t.lockSpins + t.lockAcquires);
            return w;
        }

        const auto totals = spans.totals();
        const auto total_of = [&](const char *name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.totalNs;
        };
        layers["assembler.words"] = t.words;
        layers["assembler.ns_per_word"] =
            t.words == 0 ? 0.0 : total_of("assembler.assemble") / t.words;
        layers["machine.init_ns"] = meanSpanNs(totals, "machine.init");
        layers["machine.run_ns_per_instr"] =
            total_of("machine.run") / t.freeInstr;
        layers["machine.hooked_ns_per_instr"] =
            total_of("kernel.run") / t.hookedInstr;
        layers["kernel.sync_init_ns"] = meanSpanNs(totals, "kernel.init");
        return w;
    }

    uint64_t
    passDigest(uint64_t seed) override
    {
        std::vector<FreeUnit> free;
        std::vector<HookedUnit> hooked;
        makeUnits(seed, free, hooked);
        std::swap(free, free_);
        std::swap(hooked, hooked_);
        Spans off;
        MachineTotals t;
        Digest pass;
        for (std::size_t p = 0; p < free_.size() + hooked_.size(); ++p) {
            const auto [is_free, index] = slot(p);
            pass.add(is_free ? runFree(free_[index], off, t)
                             : runHooked(hooked_[index], off, t));
        }
        std::swap(free, free_);
        std::swap(hooked, hooked_);
        return pass.value();
    }

  private:
    /** Pass position -> (free half?, index within the half). */
    std::pair<bool, std::size_t>
    slot(std::size_t pos) const
    {
        const std::size_t pairs = std::min(free_.size(), hooked_.size());
        if (pos < 2 * pairs)
            return {pos % 2 == 0, pos / 2};
        const std::size_t rest = pos - pairs;
        return free_.size() > hooked_.size() ? std::pair{true, rest}
                                             : std::pair{false, rest};
    }

    void
    makeUnits(uint64_t seed, std::vector<FreeUnit> &free,
              std::vector<HookedUnit> &hooked) const
    {
        InputRng rng(seed * 0xd1b54a32d192ed03ull + 17);
        const bool tiny = options_.tiny;
        free.clear();
        hooked.clear();

        // examples/os programs, in name order.
        namespace fs = std::filesystem;
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(options_.examplesOs))
            if (entry.path().extension() == ".s")
                files.push_back(entry.path());
        std::sort(files.begin(), files.end());
        std::vector<std::pair<std::string, std::string>> examples;
        for (const fs::path &path : files) {
            std::ifstream in(path);
            std::ostringstream text;
            text << in.rdbuf();
            examples.push_back({path.stem().string(), text.str()});
        }

        // Several seeded variants of every program, so that a pass
        // holds over a hundred distinct units. The seed moves each
        // size by a few percent only: the work in a pass, and the
        // balance between the two halves, stay comparable from seed
        // to seed.
        const unsigned free_variants = tiny ? 1 : 8;
        const unsigned hooked_variants = tiny ? 1 : 7;
        for (unsigned v = 0; v < free_variants; ++v) {
            for (const auto &[name, text] : examples) {
                FreeUnit unit{name, text};
                const uint64_t n = tiny ? 600 : rng.range(1900, 2047);
                if (name == "spinlock_convoy") {
                    unit.iterations = n;
                    unit.source = setConstant(text, "ITERS", n);
                    unit.check = FreeUnit::Check::Convoy;
                } else if (name == "producer_consumer") {
                    unit.source = setConstant(text, "ITEMS_N", n);
                } else if (name == "barrier_phases") {
                    unit.source = setConstant(text, "PHASES", n);
                }
                free.push_back(std::move(unit));
            }

            // Hot loops: OUTER x INNER iterations.
            const auto loop = [&](const char *name, const char *source,
                                  FreeUnit::Check check) {
                const uint64_t inner = tiny ? 500 : rng.range(1900, 2047);
                const uint64_t outer = tiny ? 8 : rng.range(60, 65);
                free.push_back(
                    {name,
                     setConstant(setConstant(source, "INNER", inner),
                                 "OUTER", outer),
                     check, inner * outer});
            };
            loop("alu_loop", kAluLoop, FreeUnit::Check::Alu);
            loop("mem_loop", kMemLoop, FreeUnit::Check::Mem);
            const uint64_t inner =
                liCount(rng, tiny ? 2 : 24, tiny ? 2 : 26);
            free.push_back({"switch_loop",
                            setConstant(kSwitchLoop, "INNER", inner),
                            FreeUnit::Check::None, inner});
        }

        // The four SyncScenario programs at flexible 8x16 and fixed
        // 4x32 contexts (the fixed arm does twice the work per thread),
        // with rounds (items for the ring) scaled per scenario so that
        // each run retires a few tens of thousands of instructions.
        const std::pair<runtime::SyncScenario, unsigned> scenarios[] = {
            {runtime::SyncScenario::UncontendedLock, 3},
            {runtime::SyncScenario::LockConvoy, 1},
            {runtime::SyncScenario::ProducerConsumer, 3},
            {runtime::SyncScenario::BarrierSkew, 4},
        };
        for (unsigned v = 0; v < hooked_variants; ++v) {
            for (const auto &[scenario, scale] : scenarios) {
                const unsigned rounds =
                    scale * static_cast<unsigned>(rng.range(6, 7));
                const unsigned items =
                    scale * static_cast<unsigned>(rng.range(8, 9));
                hooked.push_back({scenario, true, rounds, items});
                hooked.push_back({scenario, false, rounds * 2, items * 2});
            }
        }
    }

    /** Assemble, load and run one free-running unit; @return digest. */
    uint64_t
    runFree(const FreeUnit &unit, Spans &spans, MachineTotals &t)
    {
        const uint64_t t0 = nowNs();
        Scoped span(spans, "rrisc_mix.free", pos_);
        assembler::Program program;
        {
            Scoped a(spans, "assembler.assemble", pos_);
            program = assembler::assemble(unit.source);
        }
        if (!program.ok()) {
            failures.check(false, "rrisc_mix " + unit.name +
                                      " does not assemble: " +
                                      program.errors.front().str());
            return 0;
        }
        t.words += static_cast<double>(program.words.size());

        std::optional<machine::Cpu> cpu;
        {
            Scoped init(spans, "machine.init", pos_);
            cpu.emplace(machine::CpuConfig{});
            cpu->mem().loadImage(program.base, program.words);
            const auto entry = program.symbols.find("entry");
            cpu->setPc(entry != program.symbols.end() ? entry->second
                                                      : program.base);
        }
        {
            Scoped run(spans, "machine.run", pos_);
            cpu->run(kStepCap);
        }
        const uint64_t instr = cpu->instructionsRetired();
        t.freeInstr += static_cast<double>(instr);
        t.freeNs += static_cast<double>(nowNs() - t0);
        t.sbBuilt += static_cast<double>(cpu->superblocksBuilt());
        t.sbFlushes += static_cast<double>(cpu->superblockFlushes());
        t.sbReverified += static_cast<double>(cpu->superblocksReverified());

        std::string why;
        if (!cpu->halted() || cpu->trap() != machine::TrapKind::None)
            why = std::string("did not halt cleanly (trap: ") +
                  machine::trapName(cpu->trap()) + ")";
        else if (instr < kMinInstructions)
            why = "retired only " + std::to_string(instr) + " instructions";
        else
            why = checkResult(unit, *cpu);
        failures.check(why.empty(), "rrisc_mix " + unit.name + ": " + why);

        Digest d;
        d.add(instr);
        d.add(cpu->cycles());
        d.add(uint64_t{cpu->pc()});
        for (unsigned r = 0; r < cpu->regs().size(); ++r)
            d.add(uint64_t{cpu->regs().read(r)});
        d.add(std::string_view(
            reinterpret_cast<const char *>(cpu->mem().data()),
            1024 * sizeof(uint32_t)));
        return d.value();
    }

    /** Architectural results of the units whose outcome is known. */
    static std::string
    checkResult(const FreeUnit &unit, const machine::Cpu &cpu)
    {
        const uint64_t n = unit.iterations;
        switch (unit.check) {
          case FreeUnit::Check::Alu: {
            // r2 counts iterations; r3 is the XOR of 1..n.
            const uint32_t x = static_cast<uint32_t>(
                n % 4 == 0 ? n : n % 4 == 1 ? 1 : n % 4 == 2 ? n + 1 : 0);
            if (cpu.regs().read(2) != static_cast<uint32_t>(n) ||
                cpu.regs().read(3) != x)
                return "ALU loop result differs from its closed form";
            return "";
          }
          case FreeUnit::Check::Mem:
            if (cpu.regs().read(3) != static_cast<uint32_t>(n) ||
                cpu.mem().data()[257] != static_cast<uint32_t>(n))
                return "load/store loop count differs";
            return "";
          case FreeUnit::Check::Convoy:
            if (cpu.mem().data()[0x100] != 2 * n)
                return "convoy counter is not 2 * ITERS";
            return "";
          case FreeUnit::Check::None: return "";
        }
        return "";
    }

    /** Counts the kernel's fault and poll events (trace audit). */
    struct CountingSink : trace::TraceSink
    {
        uint64_t issues = 0, completes = 0, polls = 0;
        void
        emit(const trace::TraceEvent &e) override
        {
            issues += e.kind == trace::EventKind::FaultIssue;
            completes += e.kind == trace::EventKind::FaultComplete;
            polls += e.kind == trace::EventKind::SchedulerPoll;
        }
    };

    /** Run one SyncScenario program through the kernel; @return digest. */
    uint64_t
    runHooked(const HookedUnit &unit, Spans &spans, MachineTotals &t)
    {
        const uint64_t t0 = nowNs();
        Scoped span(spans, "rrisc_mix.hooked", pos_);
        kernel::SyncWorkloadConfig config;
        config.scenario = unit.scenario;
        config.numThreads = unit.flexible ? 8 : 4;
        config.forcedContextSize = unit.flexible ? 0 : 32;
        config.rounds = unit.rounds;
        config.itemsPerProducer = unit.items;
        config.faultLatency = 500;
        CountingSink sink;
        config.traceSink = &sink;
        const std::string name =
            std::string(runtime::syncScenarioName(unit.scenario)) +
            (unit.flexible ? "/flexible" : "/fixed-32");

        std::optional<kernel::SyncWorkloadKernel> k;
        {
            Scoped init(spans, "kernel.init", pos_);
            k.emplace(config);
        }
        kernel::SyncWorkloadResult r;
        {
            Scoped run(spans, "kernel.run", pos_);
            r = k->run();
        }
        const machine::Cpu &cpu = k->cpu();
        const uint64_t instr = cpu.instructionsRetired();
        t.hookedInstr += static_cast<double>(instr);
        t.hookedNs += static_cast<double>(nowNs() - t0);
        t.sbBuilt += static_cast<double>(cpu.superblocksBuilt());
        t.sbFlushes += static_cast<double>(cpu.superblockFlushes());
        t.sbReverified += static_cast<double>(cpu.superblocksReverified());
        t.failedPolls += static_cast<double>(r.failedPolls);
        t.faults += static_cast<double>(r.faults);
        t.lockSpins += static_cast<double>(r.lockSpins);
        t.lockAcquires += static_cast<double>(r.lockAcquires);

        std::string why;
        if (!r.halted || cpu.trap() != machine::TrapKind::None)
            why = std::string("did not halt cleanly (trap: ") +
                  machine::trapName(cpu.trap()) + ")";
        else if (instr < kMinInstructions)
            why = "retired only " + std::to_string(instr) + " instructions";
        else if (sink.issues != r.faults || sink.completes != r.faults ||
                 sink.polls != r.failedPolls)
            why = "trace does not reconcile with the kernel counters";
        else if (r.itemsProduced != r.itemsConsumed)
            why = "items produced and consumed differ";
        failures.check(why.empty(), "rrisc_mix " + name + ": " + why);

        Digest d;
        for (const uint64_t v :
             {r.totalCycles, r.workUnits, r.usefulCycles, r.faults,
              r.failedPolls, r.lockAcquires, r.lockSpins, r.semWaits,
              r.barrierWaits, r.barrierReleases, r.itemsProduced,
              r.itemsConsumed, uint64_t{r.residentContexts}, instr})
            d.add(v);
        d.add(r.efficiencyTotal);
        return d.value();
    }

    Options options_;
    std::vector<FreeUnit> free_;
    std::vector<HookedUnit> hooked_;
    std::vector<uint64_t> digests_;
    std::size_t pos_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeRriscMix(const Options &options)
{
    return std::make_unique<RriscMix>(options);
}

} // namespace rrperf
