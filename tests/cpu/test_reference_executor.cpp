/**
 * @file
 * Unit tests for the sequential reference executor run as one
 * all-cached context: ALU and control flow with exact step counts,
 * memory and swap, marks, the runaway cap, sub-word accesses, and the
 * trace stream it records on the System I/O page layout.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "cpu/reference_executor.hh"
#include "isa/program.hh"
#include "sim/logging.hh"
#include "sim/trace_recorder.hh"

namespace {

using namespace csb;
using core::System;
using cpu::ReferenceExecutor;
using isa::ir;

TEST(ReferenceExecutor, AluAndControlFlow)
{
    isa::Program p;
    p.li(ir(1), 0);
    p.li(ir(2), 0);
    p.li(ir(3), 5);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.add_(ir(1), ir(1), ir(2));
    p.addi(ir(2), ir(2), 1);
    p.blt(ir(2), ir(3), loop);
    p.halt();
    p.finalize();

    ReferenceExecutor ref;
    ref.addContext(&p, 0);
    ref.run();
    EXPECT_TRUE(ref.state(0).halted);
    EXPECT_EQ(ref.state(0).intRegs[1], 10u);
    EXPECT_EQ(ref.steps(0), 3u + 3 * 5 + 1);
}

TEST(ReferenceExecutor, MemoryAndSwap)
{
    isa::Program p;
    p.li(ir(1), 0x1000);
    p.li(ir(2), 42);
    p.std_(ir(2), ir(1), 0);
    p.li(ir(3), 7);
    p.swap(ir(3), ir(1), 0);
    p.ldd(ir(4), ir(1), 0);
    p.halt();
    p.finalize();

    ReferenceExecutor ref;
    ref.addContext(&p, 0);
    ref.run();
    EXPECT_EQ(ref.state(0).intRegs[3], 42u) << "swap returned the old value";
    EXPECT_EQ(ref.state(0).intRegs[4], 7u) << "memory holds the swapped value";
}

TEST(ReferenceExecutor, MarksInCommitOrder)
{
    isa::Program p;
    p.mark(3);
    p.mark(1);
    p.mark(2);
    p.halt();
    p.finalize();
    ReferenceExecutor ref;
    ref.addContext(&p, 0);
    ref.run();
    EXPECT_EQ(ref.marks(0), (std::vector<std::int64_t>{3, 1, 2}));
}

TEST(ReferenceExecutor, StepLimitStopsRunawayLoops)
{
    isa::Program p;
    isa::Label forever = p.newLabel();
    p.bind(forever);
    p.jmp(forever);
    p.halt();
    p.finalize();
    ReferenceExecutor ref;
    ref.addContext(&p, 0);
    EXPECT_THROW(ref.run(100), FatalError);
    EXPECT_FALSE(ref.state(0).halted);
    EXPECT_EQ(ref.steps(0), 100u);
}

TEST(ReferenceExecutor, SubWordAccesses)
{
    isa::Program p;
    p.li(ir(1), 0x2000);
    p.li(ir(2), 0x11223344AABBCCDDLL);
    p.std_(ir(2), ir(1), 0);
    p.ldb(ir(3), ir(1), 0); // little-endian low byte
    p.ldw(ir(4), ir(1), 4); // upper word
    p.halt();
    p.finalize();
    ReferenceExecutor ref;
    ref.addContext(&p, 0);
    ref.run();
    EXPECT_EQ(ref.state(0).intRegs[3], 0xDDu);
    EXPECT_EQ(ref.state(0).intRegs[4], 0x11223344u);
}

/** On the System I/O layout the recorded op and attr bits follow the
 *  page, and ticks are step indices, translated or not. */
TEST(ReferenceExecutor, TracesIoLayoutWithStepTicks)
{
    isa::Program p;
    p.li(ir(1), System::ioUncachedBase);
    p.li(ir(2), System::ioCsbBase);
    p.li(ir(3), 7);
    p.std_(ir(3), ir(1), 0); // step 3: uncached store
    p.add_(ir(4), ir(3), ir(3));
    p.add_(ir(4), ir(4), ir(3));
    p.std_(ir(4), ir(2), 0); // step 6: combining store
    p.std_(ir(3), ir(2), 8); // step 7: combining store
    p.li(ir(5), 2);
    p.swap(ir(5), ir(2), 0); // step 9: conditional flush, 2 hits
    p.halt();
    p.finalize();

    auto attr = [](mem::PageAttr a) {
        return std::uint8_t(std::uint8_t(a) << sim::TraceFlagAttrShift);
    };
    const std::uint8_t interp = sim::TraceFlagInterpreter;
    const std::uint8_t uncached = attr(mem::PageAttr::Uncached);
    const std::uint8_t combining = attr(mem::PageAttr::UncachedCombining);

    for (bool translate : {false, true}) {
        SCOPED_TRACE(translate ? "translated" : "switch dispatch");
        ReferenceExecutor ref;
        ref.setTranslate(translate);
        ref.pageTable().setAttr(System::ioUncachedBase,
                                System::ioRegionSize,
                                mem::PageAttr::Uncached);
        ref.pageTable().setAttr(System::ioCsbBase, System::ioRegionSize,
                                mem::PageAttr::UncachedCombining);
        sim::TraceRecorder rec;
        ref.setTraceRecorder(&rec);
        ref.addContext(&p, /*pid=*/3, /*csb_unit=*/1);
        ref.run();

        EXPECT_EQ(ref.state(0).intRegs[5], 2u) << "the flush succeeded";
        EXPECT_EQ(ref.csbFlushesSucceeded(1), 1u);
        EXPECT_EQ(ref.steps(0), 11u);

        const std::vector<sim::TraceRecord> &r = rec.records();
        ASSERT_EQ(r.size(), 4u);
        for (const sim::TraceRecord &record : r) {
            EXPECT_EQ(record.cpu, 1u);
            EXPECT_EQ(record.pid, 3u);
            EXPECT_EQ(record.size, 8u);
        }
        EXPECT_EQ(r[0].op, sim::TraceOp::UncachedStore);
        EXPECT_EQ(r[0].tick, 3u);
        EXPECT_EQ(r[0].addr, System::ioUncachedBase);
        EXPECT_EQ(r[0].value, 7u);
        EXPECT_EQ(r[0].flags, interp | uncached);

        EXPECT_EQ(r[1].op, sim::TraceOp::CsbStore);
        EXPECT_EQ(r[1].tick, 6u);
        EXPECT_EQ(r[1].value, 21u);
        EXPECT_EQ(r[1].flags, interp | combining);
        EXPECT_EQ(r[2].op, sim::TraceOp::CsbStore);
        EXPECT_EQ(r[2].tick, 7u);
        EXPECT_EQ(r[2].addr, System::ioCsbBase + 8);
        EXPECT_EQ(r[2].flags, interp | combining);

        EXPECT_EQ(r[3].op, sim::TraceOp::CsbFlush);
        EXPECT_EQ(r[3].tick, 9u);
        EXPECT_EQ(r[3].value, 2u) << "the expected hit count";
        EXPECT_EQ(r[3].flags, interp | sim::TraceFlagSwap | combining);
    }
}

} // namespace
