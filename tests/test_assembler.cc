/**
 * @file
 * Assembler tests: labels, directives, pseudo-instructions, PC-
 * relative branch resolution, memory operands, comments, and error
 * diagnostics.
 */

#include <gtest/gtest.h>

#include "analysis/static/lint.hh"
#include "assembler/assembler.hh"
#include "base/rng.hh"
#include "isa/instruction.hh"
#include "machine/cpu.hh"

namespace rr::assembler {
namespace {

using isa::Instruction;
using isa::Opcode;

Instruction
decodeWord(const Program &prog, size_t index)
{
    Instruction inst;
    EXPECT_TRUE(isa::decode(prog.words.at(index), inst));
    return inst;
}

TEST(Assembler, BasicInstructions)
{
    const Program prog = assemble("add r1, r2, r3\n"
                                  "addi r4, r5, -7\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 3u);
    EXPECT_EQ(decodeWord(prog, 0), isa::makeR3(Opcode::ADD, 1, 2, 3));
    EXPECT_EQ(decodeWord(prog, 1), isa::makeI(Opcode::ADDI, 4, 5, -7));
    EXPECT_EQ(decodeWord(prog, 2).op, Opcode::HALT);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble("; leading comment\n"
                                  "\n"
                                  "nop // trailing\n"
                                  "nop # hash comment\n"
                                  "   \t \n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.words.size(), 2u);
}

TEST(Assembler, LabelsAndBranches)
{
    const Program prog = assemble("start:\n"
                                  "  nop\n"
                                  "loop: addi r1, r1, -1\n"
                                  "  bne r1, r2, loop\n"
                                  "  b start\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("start"), 0u);
    EXPECT_EQ(prog.addressOf("loop"), 1u);
    // bne at word 2, target word 1 -> offset -1.
    EXPECT_EQ(decodeWord(prog, 2), isa::makeB(Opcode::BNE, 1, 2, -1));
    // b at word 3 -> beq r0, r0 with offset -3.
    EXPECT_EQ(decodeWord(prog, 3), isa::makeB(Opcode::BEQ, 0, 0, -3));
}

TEST(Assembler, ForwardReferences)
{
    const Program prog = assemble("  jal r0, target\n"
                                  "  nop\n"
                                  "target: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeJ(Opcode::JAL, 0, 2));
}

TEST(Assembler, MemoryOperands)
{
    const Program prog = assemble("ld r1, 4(r2)\n"
                                  "st r3, (r4)\n"
                                  "ld r5, -1(r6)\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::LD, 1, 2, 4));
    EXPECT_EQ(decodeWord(prog, 1), isa::makeI(Opcode::ST, 3, 4, 0));
    EXPECT_EQ(decodeWord(prog, 2), isa::makeI(Opcode::LD, 5, 6, -1));
}

TEST(Assembler, MovPseudo)
{
    const Program prog = assemble("mov r1, r2\n"
                                  "mov r3, psw\n"
                                  "mov psw, r4\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::ADDI, 1, 2, 0));
    Instruction mfpsw = decodeWord(prog, 1);
    EXPECT_EQ(mfpsw.op, Opcode::MFPSW);
    EXPECT_EQ(mfpsw.rd, 3);
    Instruction mtpsw = decodeWord(prog, 2);
    EXPECT_EQ(mtpsw.op, Opcode::MTPSW);
    EXPECT_EQ(mtpsw.rs1, 4);
}

TEST(Assembler, LiExpandsToLuiOri)
{
    const Program prog = assemble("li r1, 0x12345\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 2u);
    const Instruction lui = decodeWord(prog, 0);
    const Instruction ori = decodeWord(prog, 1);
    EXPECT_EQ(lui.op, Opcode::LUI);
    EXPECT_EQ(ori.op, Opcode::ORI);
    const uint32_t value = (static_cast<uint32_t>(lui.imm) << 12) |
                           static_cast<uint32_t>(ori.imm);
    EXPECT_EQ(value, 0x12345u);
}

/** Assemble @p source, run it to HALT, and return register @p reg. */
uint32_t
runAndRead(const std::string &source, unsigned reg)
{
    const Program prog = assemble(source);
    for (const Diagnostic &error : prog.errors)
        ADD_FAILURE() << error.str();
    machine::CpuConfig config;
    config.memWords = 4096;
    machine::Cpu cpu(config);
    cpu.mem().loadImage(prog.base, prog.words);
    cpu.setPc(prog.base);
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    return cpu.regs().read(reg);
}

// Low 12 bits of 0x800..0xfff do not fit ORI's signed immediate: li
// rounds the LUI part up and ADDs the negative remainder instead.
TEST(Assembler, LiWithHighLowBitsRoundsTheUpperPart)
{
    for (const uint32_t value :
         {0x800u, 0xfffu, 0x12fffu, 0x3fffe800u, 0x3ffff7ffu}) {
        SCOPED_TRACE(value);
        const std::string source =
            "li r1, " + std::to_string(value) + "\nhalt\n";
        EXPECT_EQ(runAndRead(source, 1), value);
    }

    const Program prog = assemble("li r1, 0x12fff\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeJ(Opcode::LUI, 1, 0x13));
    EXPECT_EQ(decodeWord(prog, 1),
              isa::makeI(Opcode::ADDI, 1, 1, -1));

    // Below 0x800 the bytes are the classic LUI+ORI pair.
    const Program low = assemble("li r1, 0x127ff\n");
    ASSERT_TRUE(low.ok());
    EXPECT_EQ(decodeWord(low, 0), isa::makeJ(Opcode::LUI, 1, 0x12));
    EXPECT_EQ(decodeWord(low, 1),
              isa::makeI(Opcode::ORI, 1, 1, 0x7ff));

    // la takes the same path for a label past 0x800.
    EXPECT_EQ(runAndRead("    la r2, far\n"
                         "    halt\n"
                         ".org 0x900\n"
                         "far: .word 0\n",
                         2),
              0x900u);
}

// rrlint's RRM constant propagation folds the LUI+ADDI form too, so a
// window opened by such a li is known statically.
TEST(Assembler, LiWithHighLowBitsIsVisibleToLint)
{
    const Program prog = assemble("entry:\n"
                                  "    li    r10, 0xfe0\n"
                                  "    ldrrm r10\n"
                                  "    nop\n"
                                  "    add   r1, r2, r3\n"
                                  "    halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 1).op, Opcode::ADDI);
    const lint::LintResult result = lint::lintProgram(prog, {});
    bool found = false;
    for (const lint::ThreadReport &window : result.threads)
        found = found || window.rrm == 0xfe0u;
    EXPECT_TRUE(found);
}

TEST(Assembler, LaResolvesLabelAddress)
{
    const Program prog = assemble("  la r1, data\n"
                                  "  halt\n"
                                  "data: .word 99\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("data"), 3u);
    const Instruction lui = decodeWord(prog, 0);
    const Instruction ori = decodeWord(prog, 1);
    const uint32_t value = (static_cast<uint32_t>(lui.imm) << 12) |
                           static_cast<uint32_t>(ori.imm);
    EXPECT_EQ(value, 3u);
    EXPECT_EQ(prog.words[3], 99u);
}

TEST(Assembler, EquConstants)
{
    const Program prog = assemble(".equ LIMIT, 42\n"
                                  "addi r1, r2, LIMIT\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::ADDI, 1, 2, 42));
}

TEST(Assembler, OrgPadsImage)
{
    const Program prog = assemble("nop\n"
                                  ".org 4\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 5u);
    EXPECT_EQ(decodeWord(prog, 4).op, Opcode::HALT);
}

TEST(Assembler, LeadingOrgSetsBase)
{
    const Program prog = assemble(".org 100\n"
                                  "start: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.base, 100u);
    EXPECT_EQ(prog.addressOf("start"), 100u);
    EXPECT_EQ(prog.words.size(), 1u);
}

TEST(Assembler, AlignPads)
{
    const Program prog = assemble("nop\n"
                                  ".align 4\n"
                                  "aligned: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("aligned"), 4u);
}

TEST(Assembler, HexAndNegativeLiterals)
{
    const Program prog = assemble("addi r1, r2, 0x7f\n"
                                  "addi r3, r4, -0x10\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0).imm, 0x7f);
    EXPECT_EQ(decodeWord(prog, 1).imm, -16);
}

TEST(Assembler, JalrTwoOperandForm)
{
    const Program prog = assemble("jalr r1, r2\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::JALR, 1, 2, 0));
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    const Program prog = assemble("frobnicate r1\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("unknown"),
              std::string::npos);
    EXPECT_EQ(prog.errors[0].line, 1);
}

TEST(AssemblerErrors, UndefinedLabel)
{
    const Program prog = assemble("b nowhere\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("nowhere"),
              std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    const Program prog = assemble("x: nop\nx: nop\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("duplicate"),
              std::string::npos);
    EXPECT_EQ(prog.errors[0].line, 2);
}

// Immediates that do not fit their field are diagnosed on the source
// line, never passed on to the encoder (which would abort).
TEST(AssemblerErrors, OutOfRangeImmediatesAreDiagnosed)
{
    for (const char *source :
         {"nop\nli r1, 0x40000000\n", "nop\naddi r1, r1, 5000\n",
          "nop\nlui r1, 999999\n", "nop\nld r1, 9000(r2)\n",
          "nop\nli r1, 0x3ffffff0\n", "nop\nfault 4096\n"}) {
        SCOPED_TRACE(source);
        const Program prog = assemble(source);
        ASSERT_EQ(prog.errors.size(), 1u);
        EXPECT_EQ(prog.errors[0].line, 2);
    }

    // A branch to a label more than 2047 words away.
    std::string far = "beq r0, r0, far\n";
    for (int i = 0; i < 2100; ++i)
        far += "nop\n";
    far += "far: halt\n";
    for (const std::string head : {"beq r0, r0, far", "b far"}) {
        const Program prog =
            assemble(head + far.substr(far.find('\n')));
        ASSERT_EQ(prog.errors.size(), 1u) << head;
        EXPECT_EQ(prog.errors[0].line, 1);
        EXPECT_NE(prog.errors[0].message.find("branch offset 2101"),
                  std::string::npos);
    }
}

TEST(AssemblerErrors, BadRegister)
{
    const Program prog = assemble("add r1, r64, r2\n");
    ASSERT_FALSE(prog.ok());
}

TEST(AssemblerErrors, WrongOperandCount)
{
    const Program prog = assemble("add r1, r2\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("expects"),
              std::string::npos);
}

TEST(AssemblerErrors, BackwardOrgRejected)
{
    const Program prog = assemble("nop\nnop\n.org 1\nnop\n");
    ASSERT_FALSE(prog.ok());
}

TEST(Assembler, LineMappingTracksSource)
{
    const Program prog = assemble("nop\n"
                                  "nop\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.lines[0], 1);
    EXPECT_EQ(prog.lines[1], 2);
    EXPECT_EQ(prog.lines[2], 3);
}

TEST(Assembler, ThreadDirectiveRecordsEntryPoints)
{
    const Program prog = assemble(".thread worker\n"
                                  ".thread other, 0x20\n"
                                  "entry:\n"
                                  "    halt\n"
                                  "worker:\n"
                                  "    halt\n"
                                  "other:\n"
                                  "    halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.threads.size(), 2u);
    EXPECT_EQ(prog.threads[0].address, prog.addressOf("worker"));
    EXPECT_FALSE(prog.threads[0].hasRrm);
    EXPECT_EQ(prog.threads[1].address, prog.addressOf("other"));
    EXPECT_TRUE(prog.threads[1].hasRrm);
    EXPECT_EQ(prog.threads[1].rrm, 0x20u);
    // Directives emit no words.
    EXPECT_EQ(prog.words.size(), 3u);
}

TEST(Assembler, LockdefDirectiveRecordsLockProcedures)
{
    const Program prog = assemble(".lockdef m, take, drop\n"
                                  "take:\n"
                                  "    jmp r8\n"
                                  "drop:\n"
                                  "    jmp r8\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.lockdefs.size(), 1u);
    EXPECT_EQ(prog.lockdefs[0].name, "m");
    EXPECT_EQ(prog.lockdefs[0].acquire, prog.addressOf("take"));
    EXPECT_EQ(prog.lockdefs[0].release, prog.addressOf("drop"));
}

TEST(Assembler, AddressTakenTracksLabelMaterialisations)
{
    // Labels materialised via la/li or .word are potential JALR
    // targets; plain numbers and .equ constants are not.
    const Program prog = assemble("    .equ K, 0x40\n"
                                  "entry:\n"
                                  "    la r4, helper\n"
                                  "    li r5, K\n"
                                  "    li r6, 7\n"
                                  "    halt\n"
                                  "helper:\n"
                                  "    jmp r8\n"
                                  "    .word tail\n"
                                  "tail:\n"
                                  "    halt\n");
    ASSERT_TRUE(prog.ok());
    const std::vector<uint32_t> expect = {prog.addressOf("helper"),
                                          prog.addressOf("tail")};
    EXPECT_EQ(prog.addressTaken, expect);
}

TEST(AssemblerErrors, MalformedConcurrencyDirectives)
{
    EXPECT_FALSE(assemble(".thread\nhalt\n").ok());
    EXPECT_FALSE(assemble(".thread nowhere\nhalt\n").ok());
    EXPECT_FALSE(assemble(".lockdef m, onlyone\nhalt\n").ok());
    EXPECT_FALSE(
        assemble(".lockdef m, a, nowhere\na:\n jmp r8\n").ok());
}


/**
 * Property: disassembly is valid assembler input, and re-assembling
 * it reproduces the original word — for every opcode with random
 * legal operands.
 */
class DisasmRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DisasmRoundTrip, TextSurvivesReassembly)
{
    const auto op = static_cast<isa::Opcode>(GetParam());
    const isa::Format fmt = isa::formatOf(op);
    const isa::FormatInfo info = isa::formatInfo(fmt);
    rr::Rng rng(GetParam() * 131 + 5);

    for (int trial = 0; trial < 50; ++trial) {
        isa::Instruction inst;
        inst.op = op;
        if (info.hasRd)
            inst.rd = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasRs1)
            inst.rs1 = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasRs2)
            inst.rs2 = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasImm) {
            if (info.immSigned) {
                const int32_t lo = -(1 << (info.immBits - 1));
                const int32_t hi = (1 << (info.immBits - 1)) - 1;
                inst.imm = static_cast<int32_t>(rng.nextRange(
                               0, static_cast<uint64_t>(hi - lo))) +
                           lo;
            } else {
                inst.imm = static_cast<int32_t>(
                    rng.nextRange(0, (1u << info.immBits) - 1));
            }
        }

        const uint32_t word = isa::encode(inst);
        const std::string text = isa::disassemble(inst);
        const Program prog = assemble(text + "\n");
        ASSERT_TRUE(prog.ok()) << text;
        ASSERT_EQ(prog.words.size(), 1u) << text;
        EXPECT_EQ(prog.words[0], word) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, DisasmRoundTrip,
    ::testing::Range(0u, isa::numOpcodes),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(
            isa::mnemonicOf(static_cast<isa::Opcode>(info.param)));
    });

} // namespace
} // namespace rr::assembler
