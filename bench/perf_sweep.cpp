/**
 * @file
 * Sweep-engine microbenchmark: wall-clock throughput of the same
 * bandwidth-sweep grid run serially (--jobs 1 path) and through the
 * SweepRunner worker pool, plus a byte-level determinism check that
 * the two produce identical results.  After a 1.5 s untimed pooled
 * warm-up, each side is timed as the best of three runs that each
 * repeat the grid for at least 0.25 s, and every pass of every run is
 * checked against the serial reference.
 *
 * The printed tables contain only deterministic quantities (grid
 * shape, point counts, the identical-results verdict), so the
 * EXPERIMENTS.md splice stays byte-identical across machines and
 * --jobs values.  Wall-clock seconds, the measured speedup and the
 * worker count go to the JSON artifact's tables and to stderr.
 *
 * The speedup doubles as the parallel-sweep regression gate:
 * `--min-sweep-speedup=N` makes the binary exit non-zero unless the
 * pool beats the serial path by at least N x.  Hosts with fewer than
 * 4 hardware threads skip the gate (a 1-core CI box cannot show a
 * parallel speedup); the determinism check always runs.
 */

#include "bench_common.hh"

#include "sim/thread_pool.hh"

namespace {

using namespace csb;

/** The grid: every scheme x transfer size at three CPU:bus ratios. */
struct GridPoint
{
    core::BandwidthSetup setup;
    core::Scheme scheme;
    unsigned size;
};

std::vector<GridPoint>
buildGrid()
{
    std::vector<GridPoint> grid;
    for (unsigned ratio : {2u, 6u, 10u}) {
        core::BandwidthSetup setup = bench::muxSetup(ratio, 64);
        for (core::Scheme scheme :
             core::schemesForLine(setup.lineBytes)) {
            for (unsigned size : core::defaultTransferSizes())
                grid.push_back({setup, scheme, size});
        }
    }
    return grid;
}

/**
 * The untimed pooled warm-up lasts this long: on a virtual machine
 * that was idle, four busy threads can get one CPU's worth of time
 * for the first ~1-1.5 s before the host supplies the other cores.
 */
constexpr double kWarmupSeconds = 1.5;

std::vector<double>
runGrid(core::SweepRunner &runner, const std::vector<GridPoint> &grid)
{
    return runner.map(grid, [](const GridPoint &point) {
        return core::measureStoreBandwidth(point.setup, point.scheme,
                                           point.size);
    });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csb::bench;

    double min_speedup = 0.0;
    BenchArgs args =
        parseArgs(argc, argv, {{"--min-sweep-speedup", &min_speedup}});
    unsigned jobs = core::resolveJobs(args.jobs);
    JsonReport report("perf_sweep", args.json);

    const std::vector<GridPoint> grid = buildGrid();

    core::SweepRunner serial(1);
    core::SweepRunner pool(jobs);
    const std::vector<double> expected = runGrid(serial, grid);

    // One pass of the grid takes ~20 ms serially; bestSecondsPerCall()
    // repeats it.  Every pass must reproduce the serial reference.
    bool identical = true;
    auto pass = [&](core::SweepRunner &runner) {
        if (runGrid(runner, grid) != expected)
            identical = false;
    };
    auto serial_pass = [&] { pass(serial); };
    auto pooled_pass = [&] { pass(pool); };
    if (jobs > 1)
        secondsPerCall(pooled_pass, kWarmupSeconds);
    std::vector<double> best =
        bestSecondsPerCall({serial_pass, pooled_pass});
    double serial_s = best[0], parallel_s = best[1];
    double speedup = serial_s / parallel_s;

    // Deterministic text only: the grid shape and the determinism
    // verdict, never wall-clock or the machine's thread count.
    report.print("=== Parallel sweep engine ===\n");
    report.printf("grid: %zu independent simulations (3 ratios x %zu "
                  "schemes x %zu transfer sizes), one System each\n",
                  grid.size(),
                  core::schemesForLine(64).size(),
                  core::defaultTransferSizes().size());
    report.printf("serial vs pooled results identical: %s\n",
                  identical ? "yes" : "NO");
    report.print("(results are collected by point index, never by "
                 "completion order, so artifacts are byte-identical "
                 "for any --jobs value.  Wall-clock seconds and the "
                 "measured speedup are machine-dependent and live in "
                 "the JSON artifact's tables and on stderr.)\n\n");

    // Machine-dependent numbers: stderr for humans, artifact tables
    // for the perf trajectory.
    std::fprintf(stderr,
                 "sweep: %zu points, best of %d runs of >= %.2f s: "
                 "serial %.4f s/pass, %u-worker pool %.4f s/pass -> "
                 "speedup %.2fx\n",
                 grid.size(), kTimedRuns, kMinTimedSeconds, serial_s, jobs,
                 parallel_s, speedup);

    report.beginTable("Sweep wall-clock per grid pass on this machine "
                      "(best of 3 runs of >= 0.25 s; varies by host and "
                      "--jobs; the speedup is the bench_sweep_smoke "
                      "gate on >= 4-thread hosts)",
                      {"seconds", "points_per_sec"});
    report.addRow("serial", {serial_s, grid.size() / serial_s});
    report.addRow("pooled", {parallel_s, grid.size() / parallel_s});
    report.beginTable("Sweep speedup vs serial (workers = --jobs, "
                      "default one per hardware thread)",
                      {"speedup", "workers"});
    report.addRow("sweep", {speedup, double(jobs)});

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: pooled sweep diverged from serial sweep\n");
        return report.finish(1);
    }

    if (min_speedup > 0) {
        if (sim::ThreadPool::defaultThreads() < 4) {
            std::fprintf(stderr,
                         "SKIP: sweep-speedup gate needs >= 4 hardware "
                         "threads (this host has %u)\n",
                         sim::ThreadPool::defaultThreads());
        } else if (speedup < min_speedup) {
            std::fprintf(stderr,
                         "FAIL: sweep speedup %.2fx below required "
                         "%.2fx\n",
                         speedup, min_speedup);
            return report.finish(1);
        }
    }

    return report.finish();
}
