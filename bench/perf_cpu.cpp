/**
 * @file
 * CPU-dispatch microbenchmark: the basic-block translation cache
 * (cpu/translator.hh) against the switch dispatch of the sequential
 * reference executor, plus the cycle-level core's translated
 * fast-forward mode.
 *
 * Three kernels stress the dispatch paths differently:
 *  - alu_branch: a tight pure-compute loop (one long basic block per
 *    iteration) -- the best case for threaded dispatch and the kernel
 *    the bench_cpu_smoke speedup gate measures;
 *  - store_heavy: a store per couple of instructions, so every block
 *    is tiny and execution bounces straight back to the slow path --
 *    the honest near-zero-gain control;
 *  - mixed: compute bursts between loads/stores/marks, the shape of a
 *    real workload.
 *
 * Every kernel is run interpreted (switch dispatch) and translated,
 * each timed as the best of three runs of >= 0.25 s
 * (bestSecondsPerCall()), and the results -- final architectural
 * state, instruction count, marks -- must be bit-identical, or the
 * binary exits non-zero.  The printed tables contain only
 * deterministic quantities (kernel shapes, instruction counts,
 * verdicts, cycle-model tick counts); wall-clock seconds and the
 * measured speedups are machine-dependent and go to stderr and
 * nowhere else, so the artifact is byte-identical across hosts and
 * --jobs values (bench_jobs_identical_cpu compares the JSON bytes).
 *
 * `--min-cpu-speedup=N` turns the alu_branch measurement into the
 * bench_cpu_smoke regression gate: exit non-zero unless translated
 * dispatch beats switch dispatch by at least N x.
 */

#include "bench_common.hh"

#include "core/system.hh"
#include "cpu/reference_executor.hh"

namespace {

using namespace csb;
using isa::ir;

/** Cached scratch area (same region the litmus arenas use). */
constexpr Addr kArenaBase = 0x8000;

/** One kernel: a program plus bookkeeping for the report. */
struct Kernel
{
    const char *name;
    isa::Program program;
};

/**
 * Pure compute: each iteration is one ~42-instruction basic block
 * (integer mixing chain of one-cycle ops, so dispatch overhead -- the
 * thing being measured -- dominates the arithmetic) ending in the
 * backward loop branch.
 */
Kernel
aluBranchKernel(std::int64_t iters)
{
    Kernel k;
    k.name = "alu_branch";
    isa::Program &p = k.program;
    p.li(ir(1), 0);                       // accumulator
    p.li(ir(2), iters);                   // countdown
    p.li(ir(3), 0x9e3779b97f4a7c15ull);   // odd mixing constant
    isa::Label loop = p.newLabel();
    p.bind(loop);
    for (int round = 0; round < 10; ++round) {
        p.xor_(ir(4), ir(1), ir(3));
        p.srli(ir(5), ir(4), 29);
        p.add_(ir(1), ir(4), ir(5));
        p.sub(ir(1), ir(1), ir(2));
    }
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();
    return k;
}

/**
 * A cached store every second instruction: every basic block is a
 * stub, so translation can win almost nothing here by design.
 */
Kernel
storeHeavyKernel(std::int64_t iters)
{
    Kernel k;
    k.name = "store_heavy";
    isa::Program &p = k.program;
    p.li(ir(1), kArenaBase);
    p.li(ir(2), iters);
    p.li(ir(3), 0);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    for (int slot = 0; slot < 4; ++slot) {
        p.addi(ir(3), ir(3), 1);
        p.std_(ir(3), ir(1), slot * 8);
    }
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();
    return k;
}

/** Compute bursts between loads, stores and a per-iteration mark. */
Kernel
mixedKernel(std::int64_t iters)
{
    Kernel k;
    k.name = "mixed";
    isa::Program &p = k.program;
    p.li(ir(1), kArenaBase);
    p.li(ir(2), iters);
    p.li(ir(3), 0x27d4eb2f165667c5ull);
    p.li(ir(4), 0);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    for (int round = 0; round < 4; ++round) {
        p.add_(ir(4), ir(4), ir(3));
        p.xor_(ir(5), ir(4), ir(2));
        p.mul(ir(5), ir(5), ir(3));
        p.srli(ir(6), ir(5), 31);
        p.xor_(ir(4), ir(5), ir(6));
    }
    p.ldd(ir(7), ir(1), 0);
    p.add_(ir(7), ir(7), ir(4));
    p.std_(ir(7), ir(1), 0);
    p.std_(ir(4), ir(1), 8);
    p.mark(7);
    p.membar();
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();
    return k;
}

/** Outcome of one functional run. */
struct InterpResult
{
    cpu::ArchState state;
    std::vector<std::int64_t> marks;
    std::uint64_t insts = 0;
};

InterpResult
runInterpreted(const Kernel &kernel, bool translate)
{
    cpu::ReferenceExecutor executor;
    executor.setTranslate(translate);
    executor.addContext(&kernel.program, /*pid=*/0);
    executor.run(std::uint64_t(-1));
    return {executor.state(0), executor.marks(0), executor.steps(0)};
}

bool
sameResult(const InterpResult &a, const InterpResult &b)
{
    return a.state.intRegs == b.state.intRegs &&
           a.state.fpRegs == b.state.fpRegs &&
           a.state.pc == b.state.pc &&
           a.state.halted == b.state.halted && a.marks == b.marks &&
           a.insts == b.insts;
}

/** Outcome of one cycle-model run (deterministic tick count). */
struct SystemResult
{
    cpu::ArchState state;
    std::vector<std::int64_t> markIds;
    Tick ticks = 0;
    std::uint64_t fastForwarded = 0;
};

SystemResult
runSystem(const Kernel &kernel, bool fast_forward)
{
    core::SystemConfig cfg;
    if (fast_forward)
        cfg.cpu.translate = cpu::TranslateMode::CoreFastForward;
    core::System system(cfg);
    system.core().loadProgram(&kernel.program, /*pid=*/1);
    SystemResult r;
    r.ticks = system.simulator().run(
        [&] { return system.core().halted() && system.quiescent(); },
        /*max_ticks=*/200'000'000);
    r.state = system.core().archState();
    for (const cpu::MarkRecord &mark : system.core().marks())
        r.markIds.push_back(mark.first);
    r.fastForwarded =
        std::uint64_t(system.core().instsFastForwarded.value());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csb::bench;

    // --jobs is accepted for CLI uniformity (regen passes it to every
    // bench) but the kernels are timed serially on purpose: competing
    // workers would corrupt the wall-clock comparison.
    double min_speedup = 0.0;
    BenchArgs args =
        parseArgs(argc, argv, {{"--min-cpu-speedup", &min_speedup}});
    JsonReport report("perf_cpu", args.json);

    std::vector<Kernel> kernels;
    kernels.push_back(aluBranchKernel(600'000));
    kernels.push_back(storeHeavyKernel(150'000));
    kernels.push_back(mixedKernel(60'000));

    report.print("=== Translated dispatch (cpu.translate) ===\n");
    report.print("Each kernel runs on the functional interpreter with "
                 "legacy switch dispatch and with the basic-block "
                 "translation cache; final state, instruction count "
                 "and marks must be bit-identical.  Wall-clock and "
                 "speedups are machine-dependent and go to stderr "
                 "only; everything below is deterministic.\n\n");

    report.beginTable("Kernel shapes (dynamic counts are exact and "
                      "host-independent)",
                      {"static_insts", "dynamic_insts", "identical"});

    bool all_identical = true;
    double alu_speedup = 0;
    for (const Kernel &kernel : kernels) {
        InterpResult plain, translated;
        std::vector<double> best = bestSecondsPerCall(
            {[&] { plain = runInterpreted(kernel, false); },
             [&] { translated = runInterpreted(kernel, true); }});
        double plain_s = best[0], translated_s = best[1];
        bool identical = sameResult(plain, translated);
        all_identical = all_identical && identical;
        double speedup = plain_s / translated_s;
        if (std::string(kernel.name) == "alu_branch")
            alu_speedup = speedup;
        report.printf("%-12s %8zu static, %10llu dynamic insts, "
                      "translated == interpreted: %s\n",
                      kernel.name, kernel.program.size(),
                      (unsigned long long)plain.insts,
                      identical ? "yes" : "NO");
        report.addRow(kernel.name,
                      {double(kernel.program.size()),
                       double(plain.insts), identical ? 1.0 : 0.0});
        std::fprintf(stderr,
                     "%s: interpreted %.3f s, translated %.3f s -> "
                     "%.2fx\n",
                     kernel.name, plain_s, translated_s, speedup);
    }

    // Cycle model: off vs core-fastforward on the mixed kernel.  Tick
    // counts are deterministic, so they belong in the report: they
    // document the time compression the approximate mode trades for
    // speed, while the architectural results must not move.
    const Kernel &mixed = kernels.back();
    SystemResult sys_off = runSystem(mixed, false);
    SystemResult sys_ff = runSystem(mixed, true);
    bool sys_identical =
        sys_off.state.intRegs == sys_ff.state.intRegs &&
        sys_off.state.fpRegs == sys_ff.state.fpRegs &&
        sys_off.state.pc == sys_ff.state.pc &&
        sys_off.state.halted == sys_ff.state.halted &&
        sys_off.markIds == sys_ff.markIds;
    all_identical = all_identical && sys_identical;

    report.print("\ncycle model, mixed kernel: cpu.translate=off vs "
                 "core-fastforward (architectural results must match; "
                 "ticks legitimately compress)\n");
    report.printf("arch state + marks identical: %s\n",
                  sys_identical ? "yes" : "NO");
    report.beginTable("Cycle-model fast-forward on the mixed kernel "
                      "(deterministic)",
                      {"ticks", "insts_fast_forwarded", "identical"});
    report.addRow("off", {double(sys_off.ticks),
                          double(sys_off.fastForwarded),
                          sys_identical ? 1.0 : 0.0});
    report.addRow("core-fastforward",
                  {double(sys_ff.ticks), double(sys_ff.fastForwarded),
                   sys_identical ? 1.0 : 0.0});
    std::fprintf(stderr,
                 "system mixed: off %llu ticks, ff %llu ticks "
                 "(%.1fx fewer), %llu insts fast-forwarded\n",
                 (unsigned long long)sys_off.ticks,
                 (unsigned long long)sys_ff.ticks,
                 sys_ff.ticks > 0 ? double(sys_off.ticks) /
                                        double(sys_ff.ticks)
                                  : 0.0,
                 (unsigned long long)sys_ff.fastForwarded);

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: translated dispatch diverged from "
                             "switch dispatch\n");
        return report.finish(1);
    }
    if (sys_ff.fastForwarded == 0) {
        std::fprintf(stderr, "FAIL: core fast-forward never engaged "
                             "on the mixed kernel\n");
        return report.finish(1);
    }

    if (min_speedup > 0 && alu_speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: alu_branch translated speedup %.2fx below "
                     "required %.2fx\n",
                     alu_speedup, min_speedup);
        return report.finish(1);
    }

    return report.finish();
}
