/**
 * @file
 * The basic-block translation cache (cpu/translator.hh): block
 * formation rules, cache invalidation, exact budget accounting,
 * trace-stream identity, and broad differential checks of translated
 * dispatch against the reference executor's switch dispatch --
 * including a 1000-seed sweep over the litmus generator's full token
 * vocabulary (CSB bursts, uncached I/O, swaps, membars, marks).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/system.hh"
#include "cpu/reference_executor.hh"
#include "cpu/translator.hh"
#include "isa/program.hh"
#include "litmus/generator.hh"
#include "litmus/testcase.hh"
#include "sim/logging.hh"
#include "sim/trace_recorder.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using isa::ir;

/** A two-deep nested countdown loop with a mark per inner iteration:
 *  backward branches, a self-contained block re-entered many times. */
isa::Program
loopProgram(std::int64_t outer, std::int64_t inner)
{
    isa::Program p;
    p.li(ir(1), 0);
    p.li(ir(2), outer);
    isa::Label outer_l = p.newLabel();
    p.bind(outer_l);
    p.li(ir(3), inner);
    isa::Label inner_l = p.newLabel();
    p.bind(inner_l);
    p.add_(ir(1), ir(1), ir(2));
    p.xor_(ir(1), ir(1), ir(3));
    p.mark(42);
    p.addi(ir(3), ir(3), -1);
    p.bgt(ir(3), ir(0), inner_l);
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), outer_l);
    p.halt();
    p.finalize();
    return p;
}

TEST(Translator, BlockFormationRules)
{
    // pc: 0 li, 1 li, 2 add, 3 nop, 4 sub(rd=r0), 5 ble->2,
    //     6 ldd, 7 add, 8 std, 9 mark, 10 membar, 11 halt
    isa::Program q;
    q.li(ir(1), 7);
    q.li(ir(2), 3);
    isa::Label body = q.newLabel();
    q.bind(body);
    q.add_(ir(3), ir(1), ir(2));
    q.nop();
    q.sub(ir(0), ir(1), ir(2)); // r0 destination: elided, still counted
    q.ble(ir(1), ir(0), body);
    q.ldd(ir(4), ir(1), 0);
    q.add_(ir(5), ir(4), ir(3));
    q.std_(ir(5), ir(1), 0);
    q.mark(9);
    q.membar();
    q.halt();
    q.finalize();

    cpu::Translator xlat;
    xlat.setProgram(&q);

    // Entry block: 2 li + add + nop + elided sub + branch = 6 insts.
    EXPECT_EQ(xlat.blockLen(0), 6u);
    // Branch target: add/nop/sub/branch = 4 (overlapping block).
    EXPECT_EQ(xlat.blockLen(2), 4u);
    // Boundary instructions start no block.
    EXPECT_EQ(xlat.blockLen(6), 0u);  // ldd
    EXPECT_EQ(xlat.blockLen(8), 0u);  // std
    EXPECT_EQ(xlat.blockLen(10), 0u); // membar
    EXPECT_EQ(xlat.blockLen(11), 0u); // halt
    // A compute instruction wedged between boundaries: block of 1,
    // parked before the store.
    EXPECT_EQ(xlat.blockLen(7), 1u);
    // Mark runs translated; the block [mark] stops at the membar.
    EXPECT_EQ(xlat.blockLen(9), 1u);
    // Out of range.
    EXPECT_EQ(xlat.blockLen(12), 0u);
}

TEST(Translator, SetProgramInvalidatesCache)
{
    isa::Program a;
    a.li(ir(1), 1);
    a.li(ir(2), 2);
    a.add_(ir(3), ir(1), ir(2));
    a.halt();
    a.finalize();

    isa::Program b;
    b.li(ir(1), 1);
    b.halt();
    b.finalize();

    cpu::Translator xlat;
    xlat.setProgram(&a);
    EXPECT_EQ(xlat.blockLen(0), 3u);
    xlat.setProgram(&b);
    EXPECT_EQ(xlat.blockLen(0), 1u);
    xlat.setProgram(nullptr);
    EXPECT_EQ(xlat.blockLen(0), 0u);
}

TEST(Translator, RunExecutesAndParksOnBoundary)
{
    isa::Program p = loopProgram(3, 4);
    cpu::ArchState state;
    std::vector<std::int64_t> marks;
    cpu::Translator xlat;
    xlat.setProgram(&p);
    std::uint64_t steps =
        xlat.run(state, std::uint64_t(-1), marks);
    // The whole program short of the final Halt is translated compute:
    // run() must execute all of it and park on the Halt boundary.
    EXPECT_EQ(p.at(state.pc).op, isa::Opcode::Halt);
    EXPECT_EQ(marks, std::vector<std::int64_t>(12, 42));
    // 2 setup + 3 outer x (1 li + 4 x 5 body + 2 tail) = 71.
    EXPECT_EQ(steps, 71u);
    EXPECT_FALSE(state.halted);
}

/** Run @p p as the only context of @p ref, with translation @p fast,
 *  under a runaway cap of @p budget steps.  A cutoff throws
 *  FatalError; state(0), steps(0) and marks(0) still show where the
 *  context stopped. */
void
runCapped(cpu::ReferenceExecutor &ref, const isa::Program &p, bool fast,
          std::uint64_t budget = std::uint64_t(-1))
{
    ref.setTranslate(fast);
    ref.addContext(&p, 0);
    try {
        ref.run(budget);
    } catch (const FatalError &) {
    }
}

/** Budget semantics are exact: at every max_steps cutoff the
 *  translated executor matches switch dispatch bit-for-bit. */
TEST(Translator, BudgetExactnessSweep)
{
    isa::Program p = loopProgram(2, 3);
    cpu::ReferenceExecutor full;
    runCapped(full, p, false);
    ASSERT_TRUE(full.state(0).halted);
    std::uint64_t total = full.steps(0);
    ASSERT_GT(total, 20u);

    for (std::uint64_t budget = 0; budget <= total + 2; ++budget) {
        cpu::ReferenceExecutor plain, fast;
        runCapped(plain, p, false, budget);
        runCapped(fast, p, true, budget);
        const cpu::ArchState &s1 = plain.state(0);
        const cpu::ArchState &s2 = fast.state(0);
        ASSERT_EQ(plain.steps(0), std::min(budget, total))
            << "budget " << budget;
        ASSERT_EQ(plain.steps(0), fast.steps(0)) << "budget " << budget;
        ASSERT_EQ(s1.pc, s2.pc) << "budget " << budget;
        ASSERT_EQ(s1.halted, s2.halted) << "budget " << budget;
        ASSERT_EQ(s1.intRegs, s2.intRegs) << "budget " << budget;
        ASSERT_EQ(plain.marks(0), fast.marks(0)) << "budget " << budget;
    }
}

/** Translation must not perturb the recorded reference stream: the
 *  TraceRecorder sees boundary instructions only, and those all run
 *  on the untouched slow path. */
TEST(Translator, TraceStreamIdentity)
{
    isa::Program p;
    p.li(ir(1), 0x100);
    p.li(ir(2), 5);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.add_(ir(3), ir(2), ir(2));
    p.std_(ir(3), ir(1), 0);
    p.ldd(ir(4), ir(1), 0);
    p.swap(ir(5), ir(1), 8);
    p.membar();
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();

    sim::TraceRecorder rec_plain, rec_fast;
    cpu::ReferenceExecutor plain, fast;
    plain.setTraceRecorder(&rec_plain);
    fast.setTraceRecorder(&rec_fast);
    runCapped(plain, p, false);
    runCapped(fast, p, true);
    ASSERT_EQ(rec_plain.records().size(), rec_fast.records().size());
    EXPECT_EQ(rec_plain.records(), rec_fast.records());
}

/** Tightest possible loop: a two-instruction block branching to its
 *  own entry, re-dispatched from the cache thousands of times. */
TEST(Translator, SelfLoopingBlock)
{
    isa::Program p;
    p.li(ir(1), 5000);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.addi(ir(1), ir(1), -1);
    p.bgt(ir(1), ir(0), loop);
    p.halt();
    p.finalize();

    cpu::ReferenceExecutor plain, fast;
    runCapped(plain, p, false);
    runCapped(fast, p, true);
    EXPECT_EQ(plain.state(0).intRegs, fast.state(0).intRegs);
    EXPECT_EQ(plain.state(0).pc, fast.state(0).pc);
    EXPECT_EQ(plain.steps(0), fast.steps(0));
}

/** The cycle model's fast-forward mode must actually engage on a
 *  long compute loop and still match the off run architecturally. */
TEST(Translator, CoreFastForwardEngagesAndMatches)
{
    isa::Program p;
    p.li(ir(1), 0);
    p.li(ir(2), 500);
    p.li(ir(3), 0x1234567);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    for (int i = 0; i < 8; ++i) {
        p.add_(ir(1), ir(1), ir(3));
        p.xor_(ir(1), ir(1), ir(2));
    }
    p.std_(ir(1), ir(4), 0x8000);
    p.mark(3);
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();

    cpu::ArchState st[2];
    std::vector<cpu::MarkRecord> marks[2];
    double ff_insts[2] = {0, 0};
    Tick ticks[2] = {0, 0};
    for (int ff = 0; ff < 2; ++ff) {
        SystemConfig cfg;
        if (ff)
            cfg.cpu.translate = cpu::TranslateMode::CoreFastForward;
        System system(cfg);
        system.core().loadProgram(&p, /*pid=*/1);
        ticks[ff] = system.simulator().run([&] {
            return system.core().halted() && system.quiescent();
        });
        st[ff] = system.core().archState();
        marks[ff] = system.core().marks();
        ff_insts[ff] = system.core().instsFastForwarded.value();
    }
    EXPECT_EQ(ff_insts[0], 0.0);
    EXPECT_GT(ff_insts[1], 0.0);       // the fast path really ran
    EXPECT_LT(ticks[1], ticks[0]);     // and compressed time
    EXPECT_EQ(st[0].intRegs, st[1].intRegs);
    EXPECT_EQ(st[0].pc, st[1].pc);
    EXPECT_EQ(st[0].halted, st[1].halted);
    ASSERT_EQ(marks[0].size(), marks[1].size());
    for (std::size_t i = 0; i < marks[0].size(); ++i)
        EXPECT_EQ(marks[0][i].first, marks[1][i].first) << i;
}

/**
 * 1000 litmus-generator seeds through the sequential reference with
 * translated dispatch on vs off: every observable the litmus oracle
 * itself compares (final registers, RAM arenas, the folded I/O image,
 * per-context ordered write streams, marks, CSB flush accounting)
 * must be bit-identical.
 */
TEST(Translator, ThousandSeedReferenceDifferential)
{
    litmus::GeneratorOptions gopts;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        litmus::TestCase tc = litmus::generate(seed, gopts);
        std::vector<isa::Program> programs;
        for (std::size_t c = 0; c < tc.contexts.size(); ++c)
            programs.push_back(litmus::lowerContext(tc, c));

        cpu::ReferenceExecutor ref[2];
        for (int t = 0; t < 2; ++t) {
            ref[t].setTranslate(t == 1);
            ref[t].pageTable().setAttr(System::ioUncachedBase,
                                       System::ioRegionSize,
                                       mem::PageAttr::Uncached);
            ref[t].pageTable().setAttr(
                System::ioAccelBase, System::ioRegionSize,
                mem::PageAttr::UncachedAccelerated);
            ref[t].pageTable().setAttr(System::ioCsbBase,
                                       System::ioRegionSize,
                                       mem::PageAttr::UncachedCombining);
            for (std::size_t c = 0; c < tc.contexts.size(); ++c)
                ref[t].addContext(&programs[c], tc.contexts[c].pid,
                                  unsigned(c));
            ref[t].run();
        }

        for (std::size_t c = 0; c < tc.contexts.size(); ++c) {
            ASSERT_EQ(ref[0].state(c).intRegs, ref[1].state(c).intRegs)
                << "seed " << seed << " ctx " << c;
            ASSERT_EQ(ref[0].state(c).pc, ref[1].state(c).pc)
                << "seed " << seed << " ctx " << c;
            ASSERT_EQ(ref[0].marks(c), ref[1].marks(c))
                << "seed " << seed << " ctx " << c;
            ASSERT_EQ(ref[0].ioWrites(c).size(),
                      ref[1].ioWrites(c).size())
                << "seed " << seed << " ctx " << c;

            std::vector<std::uint8_t> a(litmus::arenaBytes);
            std::vector<std::uint8_t> b(litmus::arenaBytes);
            ref[0].memory().read(litmus::arenaBase(c), a.data(),
                                 litmus::arenaBytes);
            ref[1].memory().read(litmus::arenaBase(c), b.data(),
                                 litmus::arenaBytes);
            ASSERT_EQ(a, b) << "seed " << seed << " ctx " << c;
            ASSERT_EQ(ref[0].csbFlushesSucceeded(unsigned(c)),
                      ref[1].csbFlushesSucceeded(unsigned(c)))
                << "seed " << seed << " ctx " << c;
        }
        ASSERT_EQ(ref[0].ioImage(), ref[1].ioImage())
            << "seed " << seed;
    }
}

} // namespace
