/**
 * @file
 * Sample generators. Each generator is a pure function of the Rng
 * stream, so a per-sample seed reproduces the sample exactly.
 *
 * Constraints the generators maintain (and the oracles rely on) are
 * documented per kind in docs/FUZZ.md; the broad rule is "valid by
 * construction, adversarial at the edges": geometry parameters stay
 * inside the constructors' asserted domains, while the *behaviour*
 * explored (mask churn, ties, delay-slot hazards, self-modifying
 * stores, traps) is as hostile as the contracts allow.
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <initializer_list>

#include "base/logging.hh"
#include "isa/instruction.hh"

namespace rr::fuzz {

namespace {

/** True with probability pct/100. */
bool
chance(Rng &rng, unsigned pct)
{
    return rng.nextRange(1, 100) <= pct;
}

/** Pick one element of a small list. */
template <typename T>
T
pick(Rng &rng, std::initializer_list<T> list)
{
    const auto *begin = list.begin();
    return begin[rng.nextRange(0, list.size() - 1)];
}

unsigned
log2Floor(unsigned v)
{
    unsigned bits = 0;
    while ((2u << bits) <= v)
        ++bits;
    return bits;
}

// ---------------------------------------------------------------------
// reloc

RelocSample
genReloc(Rng &rng)
{
    RelocSample s;
    s.numRegs = 8u << rng.nextRange(0, 5); // 8..256
    s.operandWidth = static_cast<unsigned>(
        rng.nextRange(1, std::min(6u, log2Floor(s.numRegs))));
    s.banks = 1;
    if (s.operandWidth >= 2 && chance(rng, 30))
        s.banks = s.operandWidth >= 3 && chance(rng, 40) ? 4 : 2;
    s.mode = static_cast<uint8_t>(rng.nextRange(0, 2));

    // Mux/Add consult the context size; open with a definite one.
    if (s.mode != 0) {
        RelocOp op;
        op.kind = RelocOp::SetSize;
        op.value = 1u << rng.nextRange(0, s.operandWidth);
        s.ops.push_back(op);
    }

    const uint64_t n = rng.nextRange(1, 40);
    for (uint64_t i = 0; i < n; ++i) {
        RelocOp op;
        if (chance(rng, 15)) {
            op.kind = RelocOp::SetSize;
            op.value = 1u << rng.nextRange(0, s.operandWidth);
        } else {
            op.kind = RelocOp::SetMask;
            op.bank = static_cast<uint8_t>(rng.nextRange(0, s.banks - 1));
            uint32_t mask =
                static_cast<uint32_t>(rng.next() % s.numRegs);
            if (chance(rng, 50)) {
                // Size-aligned masks, the paper's intended usage.
                const uint32_t align =
                    1u << rng.nextRange(0, s.operandWidth);
                mask &= ~(align - 1);
            }
            // Revisit earlier masks often enough to exercise both
            // the 16-slot table cache and the single-bank memo.
            if (i >= 4 && chance(rng, 35)) {
                const auto &prev =
                    s.ops[rng.nextRange(0, s.ops.size() - 1)];
                if (prev.kind == RelocOp::SetMask)
                    mask = prev.value;
            }
            op.value = mask;
        }
        s.ops.push_back(op);
    }
    return s;
}

// ---------------------------------------------------------------------
// heap

HeapSample
genHeap(Rng &rng)
{
    HeapSample s;
    s.numThreads = static_cast<unsigned>(rng.nextRange(1, 8));
    const uint64_t n = rng.nextRange(4, 60);
    for (uint64_t i = 0; i < n; ++i) {
        HeapOp op;
        const uint64_t roll = rng.nextRange(1, 10);
        if (roll <= 5) {
            op.kind = HeapOp::Push;
            // A narrow time range makes equal-time ties routine.
            op.time = rng.nextRange(0, 40);
            op.tid =
                static_cast<uint32_t>(rng.nextRange(0, s.numThreads - 1));
        } else if (roll <= 8) {
            op.kind = HeapOp::Pop;
        } else {
            op.kind = HeapOp::Invalidate;
            op.tid =
                static_cast<uint32_t>(rng.nextRange(0, s.numThreads - 1));
        }
        s.ops.push_back(op);
    }
    return s;
}

// ---------------------------------------------------------------------
// json

/** Append a randomly adversarial JSON string literal (with quotes). */
void
appendJsonString(Rng &rng, std::string &out)
{
    out += '"';
    const uint64_t pieces = rng.nextRange(0, 6);
    for (uint64_t i = 0; i < pieces; ++i) {
        switch (rng.nextRange(0, 7)) {
          case 0: { // plain ASCII run
            const uint64_t len = rng.nextRange(1, 5);
            for (uint64_t j = 0; j < len; ++j)
                out += static_cast<char>('a' + rng.nextRange(0, 25));
            break;
          }
          case 1: // two-character escapes
            out += pick<const char *>(
                rng, {"\\n", "\\t", "\\r", "\\\\", "\\\"", "\\/",
                      "\\b", "\\f"});
            break;
          case 2: { // \uXXXX below the surrogate range
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(rng.nextRange(1, 0xd7ff)));
            out += buf;
            break;
          }
          case 3: { // surrogate pair (astral plane character)
            char buf[16];
            std::snprintf(
                buf, sizeof buf, "\\u%04x\\u%04x",
                static_cast<unsigned>(0xd800 + rng.nextRange(0, 0x3ff)),
                static_cast<unsigned>(0xdc00 + rng.nextRange(0, 0x3ff)));
            out += buf;
            break;
          }
          case 4: { // lone surrogate
            char buf[8];
            std::snprintf(
                buf, sizeof buf, "\\u%04x",
                static_cast<unsigned>(0xd800 + rng.nextRange(0, 0x7ff)));
            out += buf;
            break;
          }
          case 5: // raw control byte (the parser tolerates these)
            out += static_cast<char>(rng.nextRange(1, 0x1f));
            break;
          case 6: { // raw non-ASCII bytes (byte-transparent contract)
            const uint64_t len = rng.nextRange(1, 4);
            for (uint64_t j = 0; j < len; ++j)
                out += static_cast<char>(rng.nextRange(0x80, 0xff));
            break;
          }
          case 7: // NUL via escape
            out += "\\u0000";
            break;
        }
    }
    out += '"';
}

void
appendJsonValue(Rng &rng, std::string &out, unsigned depth)
{
    const uint64_t roll = rng.nextRange(0, depth >= 4 ? 4 : 6);
    switch (roll) {
      case 0:
        out += pick<const char *>(rng, {"null", "true", "false"});
        break;
      case 1: { // integer
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(rng.next()) >>
                          rng.nextRange(0, 40));
        out += buf;
        break;
      }
      case 2: { // decimal / exponent forms
        char buf[48];
        switch (rng.nextRange(0, 2)) {
          case 0:
            std::snprintf(buf, sizeof buf, "%llu.%llu",
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 1000)),
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 999999)));
            break;
          case 1:
            std::snprintf(buf, sizeof buf, "-%llu.%llue%d",
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 999)),
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 99)),
                          static_cast<int>(rng.nextRange(0, 30)) - 15);
            break;
          default:
            std::snprintf(buf, sizeof buf, "%llue%d",
                          static_cast<unsigned long long>(
                              rng.nextRange(1, 9999)),
                          static_cast<int>(rng.nextRange(0, 12)));
            break;
        }
        out += buf;
        break;
      }
      case 3:
      case 4:
        appendJsonString(rng, out);
        break;
      case 5: { // array
        out += '[';
        const uint64_t n = rng.nextRange(0, 4);
        for (uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ',';
            appendJsonValue(rng, out, depth + 1);
        }
        out += ']';
        break;
      }
      default: { // object
        out += '{';
        const uint64_t n = rng.nextRange(0, 4);
        for (uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ',';
            appendJsonString(rng, out);
            out += ':';
            appendJsonValue(rng, out, depth + 1);
        }
        out += '}';
        break;
      }
    }
}

JsonSample
genJson(Rng &rng)
{
    JsonSample s;
    appendJsonValue(rng, s.text, 0);
    // Occasionally mutate a byte: most mutants fail to parse (the
    // oracle is then vacuous) but the parser must never crash, leak,
    // or accept-and-corrupt.
    if (chance(rng, 10) && !s.text.empty()) {
        const uint64_t at = rng.nextRange(0, s.text.size() - 1);
        s.text[at] = static_cast<char>(rng.nextRange(0x20, 0x7e));
    }
    return s;
}

// ---------------------------------------------------------------------
// num

NumSample
genNum(Rng &rng)
{
    static const char *const kSpecials[] = {
        "0",
        "18446744073709551615",  // UINT64_MAX
        "18446744073709551616",  // UINT64_MAX + 1
        "0xffffffffffffffff",
        "0x10000000000000000",
        "9223372036854775807",   // INT64_MAX
        "9223372036854775808",
        "0x8000000000000000",    // INT64_MIN magnitude
        "-9223372036854775808",  // INT64_MIN (signed: must reject)
        "+5",
        " 5",
        "5 ",
        "\t5",
        "05",
        "010",
        "0x",
        "0X1",
        "x1",
        "",
        "-1",
        "1e3",
        "0b101",
        "1_000",
    };
    NumSample s;
    if (chance(rng, 35)) {
        s.text = kSpecials[rng.nextRange(
            0, std::size(kSpecials) - 1)];
    } else {
        static const char kAlphabet[] = "0123456789abcdefxX+- \t";
        const uint64_t len = rng.nextRange(1, 20);
        for (uint64_t i = 0; i < len; ++i)
            s.text += kAlphabet[rng.nextRange(
                0, std::size(kAlphabet) - 2)];
    }
    switch (rng.nextRange(0, 3)) {
      case 0: s.max = ~0ull; break;
      case 1: s.max = 0x7fffffffffffffffull; break;
      case 2: s.max = 1u << 20; break;
      default: s.max = 1000; break;
    }
    return s;
}

// ---------------------------------------------------------------------
// phase

PhaseSample
genPhase(Rng &rng)
{
    PhaseSample s;
    s.threads = static_cast<unsigned>(rng.nextRange(4, 24));
    s.phase0Faults = rng.nextRange(1, 3);
    s.meanRun = static_cast<double>(rng.nextRange(16, 64));
    s.latency0 = rng.nextRange(10, 50);
    s.latency1 = rng.nextRange(1000, 5000);
    // Enough work that every thread leaves phase 0 with very high
    // probability (expected faults per thread ~ 2 * (phase0 + 6)).
    s.workPerThread = static_cast<uint64_t>(
        s.meanRun * static_cast<double>(s.phase0Faults + 6) * 2.0);
    s.numRegs = 128;
    s.seed = rng.next();
    return s;
}

// ---------------------------------------------------------------------
// program

/** Incremental RRISC image builder used by genProgram. */
struct ProgGen
{
    Rng &rng;
    ProgramSample &s;
    std::vector<isa::Instruction> code;
    size_t minLen = 0; ///< forward-branch targets must stay inside

    unsigned opMax;  ///< operand values are drawn below this
    // Register conventions inside generated programs:
    //   r3 = zero register (re-seeded after every window switch)
    //   r4 = scratch for masks / addresses
    //   r5 = loop counter
    static constexpr unsigned kZero = 3;
    static constexpr unsigned kScratch = 4;
    static constexpr unsigned kCounter = 5;

    bool lintFriendly = false;
    bool allowSmc = false;
    bool allowIndirect = false;
    bool allowWide = false;
    bool allowLoops = false;
    unsigned dataBase = 128;

    explicit ProgGen(Rng &r, ProgramSample &sample)
        : rng(r), s(sample), opMax(1u << sample.operandWidth)
    {
    }

    void emit(const isa::Instruction &inst) { code.push_back(inst); }

    isa::Instruction ins(isa::Opcode op, unsigned rd = 0,
                         unsigned rs1 = 0, unsigned rs2 = 0,
                         int32_t imm = 0)
    {
        isa::Instruction i;
        i.op = op;
        i.rd = static_cast<uint8_t>(rd);
        i.rs1 = static_cast<uint8_t>(rs1);
        i.rs2 = static_cast<uint8_t>(rs2);
        i.imm = imm;
        return i;
    }

    /** A source operand: usually small, occasionally too wide. */
    unsigned srcReg()
    {
        if (allowWide && s.operandWidth < 6 && chance(rng, 3))
            return static_cast<unsigned>(rng.nextRange(opMax, 63));
        return static_cast<unsigned>(rng.nextRange(0, opMax - 1));
    }

    /** A destination that preserves the zero/counter conventions. */
    unsigned dstReg()
    {
        for (;;) {
            const auto r =
                static_cast<unsigned>(rng.nextRange(0, opMax - 1));
            if (r != kZero && r != kCounter)
                return r;
        }
    }

    /** Materialize a small constant into @p reg (lint-const). */
    void emitConst(unsigned reg, int32_t value)
    {
        emit(ins(isa::Opcode::LUI, reg, 0, 0, 0));
        emit(ins(isa::Opcode::ADDI, reg, reg, 0, value));
    }

    void emitPrologue()
    {
        emitConst(1, static_cast<int32_t>(rng.nextRange(0, 1000)));
        emitConst(2, static_cast<int32_t>(rng.nextRange(0, 1000)));
        emit(ins(isa::Opcode::LUI, kZero, 0, 0, 0));
    }

    /** LUI/ADDI/LDRRM window switch; delay slots padded per flags. */
    void emitMaskSwitch()
    {
        uint32_t mask;
        if (s.mode == 2 /* Add */ && !chance(rng, 10)) {
            // Keep base + offset in range most of the time.
            const uint32_t room =
                s.numRegs > opMax ? s.numRegs - opMax : 1;
            mask = static_cast<uint32_t>(rng.next() % room);
        } else {
            mask = static_cast<uint32_t>(rng.next() % s.numRegs);
            if (chance(rng, 60)) {
                const uint32_t align =
                    1u << rng.nextRange(0, s.operandWidth);
                mask &= ~(align - 1);
            }
        }
        emitConst(kScratch, static_cast<int32_t>(mask));
        emit(ins(isa::Opcode::LDRRM, 0, kScratch, 0, 0));
        const bool pad = lintFriendly || chance(rng, 70);
        for (unsigned i = 0; i < s.delaySlots; ++i) {
            if (pad)
                emit(ins(isa::Opcode::NOP));
            else
                emitRandomAlu();
        }
        // Re-seed the conventions in the new window.
        emit(ins(isa::Opcode::LUI, kZero, 0, 0, 0));
    }

    void emitRandomAlu()
    {
        using isa::Opcode;
        if (chance(rng, 50)) {
            const auto op = pick<Opcode>(
                rng, {Opcode::ADD, Opcode::SUB, Opcode::AND,
                      Opcode::OR, Opcode::XOR, Opcode::SLL,
                      Opcode::SRL, Opcode::SRA, Opcode::SLT,
                      Opcode::SLTU});
            emit(ins(op, dstReg(), srcReg(), srcReg()));
        } else {
            const auto op = pick<Opcode>(
                rng, {Opcode::ADDI, Opcode::ANDI, Opcode::ORI,
                      Opcode::XORI, Opcode::SLTI, Opcode::SLLI,
                      Opcode::SRLI, Opcode::SRAI});
            int32_t imm;
            if (op == Opcode::SLLI || op == Opcode::SRLI ||
                op == Opcode::SRAI) {
                imm = static_cast<int32_t>(rng.nextRange(0, 31));
            } else {
                imm = static_cast<int32_t>(rng.nextRange(0, 200)) - 100;
            }
            emit(ins(op, dstReg(), srcReg(), 0, imm));
        }
    }

    void emitMemory()
    {
        const auto addr = static_cast<int32_t>(
            dataBase + rng.nextRange(0, 48));
        emitConst(kScratch, addr);
        const auto off = static_cast<int32_t>(rng.nextRange(0, 15));
        if (chance(rng, 50)) {
            emit(ins(isa::Opcode::LD, dstReg(), kScratch, 0, off));
        } else {
            emit(ins(isa::Opcode::ST, srcReg(), kScratch, 0, off));
        }
    }

    void emitSmc()
    {
        // Store into the code region; half the time store the zero
        // register (word 0 == NOP, so execution continues through a
        // *changed but valid* instruction — the superblock cache's
        // hardest case), otherwise store arbitrary register garbage.
        const auto target =
            static_cast<int32_t>(rng.nextRange(0, 60));
        emitConst(kScratch, target);
        const unsigned src = chance(rng, 50) ? kZero : srcReg();
        emit(ins(isa::Opcode::ST, src, kScratch, 0, 0));
    }

    void emitIndirect()
    {
        // LUI/ADDI an absolute target, then JMP or JALR to it. The
        // target is the instruction right after the jump.
        const auto target = static_cast<int32_t>(code.size()) + 3;
        emitConst(kScratch, target);
        if (chance(rng, 50))
            emit(ins(isa::Opcode::JMP, 0, kScratch, 0, 0));
        else
            emit(ins(isa::Opcode::JALR, dstReg(), kScratch, 0, 0));
    }

    void emitForwardBranch()
    {
        using isa::Opcode;
        const auto skip = static_cast<int32_t>(rng.nextRange(1, 3));
        if (chance(rng, 20)) {
            emit(ins(Opcode::JAL, dstReg(), 0, 0, skip + 1));
        } else {
            const auto op =
                pick<Opcode>(rng, {Opcode::BEQ, Opcode::BNE,
                                   Opcode::BLT, Opcode::BGE});
            emit(ins(op, 0, srcReg(), srcReg(), skip + 1));
        }
        minLen = std::max(minLen, code.size() + skip);
    }

    void emitLoop()
    {
        using isa::Opcode;
        const auto k = static_cast<int32_t>(rng.nextRange(1, 4));
        emit(ins(Opcode::ADDI, kCounter, kZero, 0, k));
        const auto top = static_cast<int32_t>(code.size());
        const uint64_t body = rng.nextRange(1, 2);
        for (uint64_t i = 0; i < body; ++i)
            emitRandomAlu();
        emit(ins(Opcode::ADDI, kCounter, kCounter, 0, -1));
        const auto at = static_cast<int32_t>(code.size());
        emit(ins(Opcode::BNE, 0, kCounter, kZero, top - at));
    }

    void emitMisc()
    {
        using isa::Opcode;
        switch (rng.nextRange(0, 5)) {
          case 0:
            emit(ins(Opcode::RDRRM, dstReg()));
            break;
          case 1:
            emit(ins(Opcode::MFPSW, dstReg()));
            break;
          case 2:
            emit(ins(Opcode::MTPSW, 0, srcReg()));
            break;
          case 3:
            emit(ins(Opcode::FF1, dstReg(), srcReg()));
            break;
          case 4:
            emit(ins(Opcode::FAULT, 0, 0, 0,
                     static_cast<int32_t>(rng.nextRange(0, 3))));
            break;
          default:
            if (s.banks > 1) {
                const bool bad = chance(rng, 5);
                const auto bank = static_cast<int32_t>(
                    bad ? s.banks : rng.nextRange(0, s.banks - 1));
                emit(ins(Opcode::LDRRMX, 0, srcReg(), 0, bank));
            } else {
                emit(ins(Opcode::NOP));
            }
            break;
        }
    }

    void build()
    {
        emitPrologue();
        const size_t bodyLen = 20 + rng.nextRange(0, 70);
        while (code.size() < bodyLen) {
            const uint64_t roll = rng.nextRange(1, 100);
            if (roll <= 18)
                emitMaskSwitch();
            else if (roll <= 26 && allowLoops)
                emitLoop();
            else if (roll <= 34)
                emitMemory();
            else if (roll <= 38 && allowSmc)
                emitSmc();
            else if (roll <= 42 && allowIndirect)
                emitIndirect();
            else if (roll <= 52)
                emitForwardBranch();
            else if (roll <= 62)
                emitMisc();
            else
                emitRandomAlu();
        }
        while (code.size() < minLen)
            emit(ins(isa::Opcode::NOP));
        emit(ins(isa::Opcode::HALT));

        s.words.reserve(code.size());
        for (const isa::Instruction &inst : code)
            s.words.push_back(isa::encode(inst));
        rr_assert(s.words.size() < dataBase,
                  "generated program overlaps its data region");
    }
};

ProgramSample
genProgram(Rng &rng)
{
    ProgramSample s;
    s.numRegs = 32u << rng.nextRange(0, 3); // 32..256
    s.operandWidth = static_cast<unsigned>(
        rng.nextRange(3, std::min(6u, log2Floor(s.numRegs))));
    s.banks = 1;
    if (s.operandWidth >= 3 && chance(rng, 25))
        s.banks = chance(rng, 40) ? 4 : 2;
    if (chance(rng, 70))
        s.mode = 0; // Or
    else
        s.mode = chance(rng, 50) ? 1 : 2; // Mux / Add
    s.delaySlots = static_cast<unsigned>(rng.nextRange(0, 2));
    s.memWords = pick<unsigned>(rng, {256, 1024, 4096});
    if (chance(rng, 50)) {
        s.takenBranchPenalty =
            static_cast<unsigned>(rng.nextRange(0, 3));
        s.loadUsePenalty = static_cast<unsigned>(rng.nextRange(0, 3));
        s.ldrrmPenalty = static_cast<unsigned>(rng.nextRange(0, 3));
    }
    s.maxSteps = 4000;

    ProgGen gen(rng, s);
    gen.allowSmc = chance(rng, 25);
    gen.allowIndirect = chance(rng, 15);
    gen.allowWide = s.operandWidth < 6 && chance(rng, 10);
    gen.allowLoops = chance(rng, 50);
    gen.dataBase = std::min(s.memWords / 2, 1500u);
    s.lintChecked = s.mode == 0 && s.banks == 1 && !gen.allowSmc &&
                    !gen.allowIndirect && !gen.allowWide;
    gen.lintFriendly = s.lintChecked;
    gen.build();
    return s;
}

// ---------------------------------------------------------------------
// mt

MtSample
genMt(Rng &rng)
{
    MtSample s;
    s.family = static_cast<uint8_t>(rng.nextRange(0, 4));
    s.arch = static_cast<uint8_t>(rng.nextRange(0, 2));
    s.operandWidth = static_cast<unsigned>(rng.nextRange(3, 6));
    const unsigned maxContext = 1u << s.operandWidth;

    switch (s.arch) {
      case 0: { // Flexible
        s.minContextSize = 1u << rng.nextRange(0, 2);
        s.regsHi = static_cast<unsigned>(
            rng.nextRange(1, std::min(maxContext, 24u)));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        unsigned needed = s.minContextSize;
        while (needed < s.regsHi)
            needed <<= 1;
        s.numRegs = std::max(pick<unsigned>(rng, {32, 64, 128}),
                             needed);
        break;
      }
      case 1: { // FixedHw
        s.fixedContextRegs = pick<unsigned>(rng, {16, 32});
        s.regsHi = static_cast<unsigned>(
            rng.nextRange(1, s.fixedContextRegs));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        s.numRegs = std::max(pick<unsigned>(rng, {64, 128}),
                             s.fixedContextRegs);
        break;
      }
      default: { // AddReloc
        s.numRegs = pick<unsigned>(rng, {64, 128});
        s.regsHi = static_cast<unsigned>(rng.nextRange(1, 24));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        break;
      }
    }

    s.threads = pick<unsigned>(rng, {1, 2, 4, 16, 48});
    s.work = chance(rng, 50) ? rng.nextRange(200, 2000) : 0;

    s.param0 = static_cast<double>(rng.nextRange(8, 64));
    s.param1 = static_cast<double>(rng.nextRange(20, 200));
    s.param2 = static_cast<double>(rng.nextRange(8, 64));
    s.param3 = static_cast<double>(rng.nextRange(50, 400));
    s.phase0Faults = rng.nextRange(1, 6);
    s.phase1Faults = rng.nextRange(1, 6);

    s.unload = static_cast<uint8_t>(chance(rng, 40) ? 1 : 0);
    s.residencyCap = chance(rng, 30)
                         ? static_cast<unsigned>(rng.nextRange(1, 4))
                         : 0;
    s.priorityLevels = static_cast<unsigned>(rng.nextRange(1, 3));
    s.seed = rng.next();
    return s;
}

// ---------------------------------------------------------------------
// ckpt

CkptSample
genCkpt(Rng &rng)
{
    CkptSample s;
    s.spec = genMt(rng);
    // Small specs keep the oracle's three runs cheap; the interesting
    // structure is in *where* the snapshot lands, not run length.
    s.spec.threads = pick<unsigned>(rng, {1, 2, 4, 16});
    s.spec.work = rng.nextRange(200, 1500);
    // Bias toward the edges: event 0 (nothing begun), tiny prefixes,
    // and values past the end (snapshot of a finished run) all have
    // their own restore paths.
    const uint64_t roll = rng.nextRange(1, 10);
    if (roll <= 2)
        s.splitEvents = rng.nextRange(0, 2);
    else if (roll <= 8)
        s.splitEvents = rng.nextRange(3, 4000);
    else
        s.splitEvents = ~0ull; // clamped to "after the last event"
    s.corruptPos = rng.next();
    s.corruptBit = static_cast<uint8_t>(rng.nextRange(0, 7));
    return s;
}

// ---------------------------------------------------------------------
// xsim

XsimSample
genXsim(Rng &rng)
{
    XsimSample s;
    s.threads = static_cast<unsigned>(rng.nextRange(1, 6));
    s.regsUsed = static_cast<unsigned>(rng.nextRange(12, 16));
    s.segments = static_cast<unsigned>(rng.nextRange(4, 24));
    const uint64_t n = rng.nextRange(1, 6);
    for (uint64_t i = 0; i < n; ++i)
        s.script.push_back(rng.nextRange(10, 120));
    s.latency = rng.nextRange(50, 800);
    s.seed = rng.next();
    s.tolerance = 0.15;
    return s;
}

// ---------------------------------------------------------------------
// callgraph

CallgraphSample
genCallgraph(Rng &rng)
{
    CallgraphSample s;
    s.numCells = static_cast<unsigned>(rng.nextRange(1, 3));
    s.numLocks = static_cast<unsigned>(rng.nextRange(0, 2));
    s.maxSteps = 20000;

    const unsigned num_procs =
        static_cast<unsigned>(rng.nextRange(1, 10));
    s.procs.resize(num_procs);

    // Forest shape first: each procedure either starts a new tree or
    // attaches under an earlier one (single parent, depth <= 3, at
    // most 4 children), so every per-root call path is unique and
    // the ground-truth locksets below are exact.
    std::vector<unsigned> depth(num_procs, 1);
    std::vector<int> parent(num_procs, -1);
    for (unsigned i = 1; i < num_procs; ++i) {
        if (!chance(rng, 55))
            continue;
        const auto candidate = static_cast<uint32_t>(
            rng.nextRange(0, i - 1));
        if (depth[candidate] >= 3 ||
            s.procs[candidate].calls.size() >= 4)
            continue;
        parent[i] = static_cast<int>(candidate);
        depth[i] = depth[candidate] + 1;
        s.procs[candidate].calls.push_back(i);
    }

    for (unsigned i = 0; i < num_procs; ++i) {
        CgProc &proc = s.procs[i];
        const unsigned touches =
            static_cast<unsigned>(rng.nextRange(0, 3));
        for (unsigned t = 0; t < touches; ++t)
            proc.touch |= 1u << rng.nextRange(1, 11);
        if (chance(rng, 65)) {
            proc.cell = static_cast<int>(
                rng.nextRange(0, s.numCells - 1));
            proc.write = chance(rng, 60);
        }
        if (s.numLocks > 0 && chance(rng, 50)) {
            const int lock = static_cast<int>(
                rng.nextRange(0, s.numLocks - 1));
            // A spinlock re-acquired while held never returns.
            bool on_path = false;
            for (int a = parent[i]; a >= 0; a = parent[a])
                on_path = on_path || s.procs[a].lock == lock;
            if (!on_path)
                proc.lock = lock;
        }
    }

    // Roots call parentless procedures only; independent draws per
    // root make shared trees (the cross-thread case) common.
    const unsigned num_roots =
        static_cast<unsigned>(rng.nextRange(1, 4));
    s.roots.resize(num_roots);
    for (CgRoot &root : s.roots) {
        for (unsigned i = 0; i < num_procs; ++i) {
            if (parent[i] < 0 && root.calls.size() < 4 &&
                chance(rng, 60))
                root.calls.push_back(i);
        }
    }
    return s;
}

} // namespace

const char *
kindName(SampleKind kind)
{
    switch (kind) {
      case SampleKind::Reloc: return "reloc";
      case SampleKind::Heap: return "heap";
      case SampleKind::Json: return "json";
      case SampleKind::Num: return "num";
      case SampleKind::Phase: return "phase";
      case SampleKind::Program: return "program";
      case SampleKind::Mt: return "mt";
      case SampleKind::Xsim: return "xsim";
      case SampleKind::Callgraph: return "callgraph";
      case SampleKind::Ckpt: return "ckpt";
    }
    return "?";
}

bool
kindFromName(const std::string &name, SampleKind &out)
{
    for (unsigned i = 0; i < numSampleKinds; ++i) {
        const auto kind = static_cast<SampleKind>(i);
        if (name == kindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

SampleKind
kindOf(const AnySample &sample)
{
    return static_cast<SampleKind>(sample.index());
}

AnySample
generateSample(SampleKind kind, Rng &rng)
{
    switch (kind) {
      case SampleKind::Reloc: return genReloc(rng);
      case SampleKind::Heap: return genHeap(rng);
      case SampleKind::Json: return genJson(rng);
      case SampleKind::Num: return genNum(rng);
      case SampleKind::Phase: return genPhase(rng);
      case SampleKind::Program: return genProgram(rng);
      case SampleKind::Mt: return genMt(rng);
      case SampleKind::Xsim: return genXsim(rng);
      case SampleKind::Callgraph: return genCallgraph(rng);
      case SampleKind::Ckpt: return genCkpt(rng);
    }
    rr_panic("bad sample kind");
}

} // namespace rr::fuzz
