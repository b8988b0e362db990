/**
 * @file
 * csbbench: the csbsim benchmark program.
 *
 *   csbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   csbbench --list-metrics
 *
 * With --trace 0 it sets the workload up several times (set-up time
 * is the fastest of batched samples, step by step), then runs units in a closed loop
 * for the given seconds and prints the end-to-end metrics.  With
 * --trace 1 every unit runs three times -- untraced and timed,
 * untraced with its stats captured, and with boundary probes; it
 * prints the per-layer metrics and fails when the traced run's
 * simulated stats differ from the untraced run's.  The last line of stdout is one JSON object with the keys
 * correct, attempted, failed and metrics; perfbench/run.py builds this
 * binary and checks that line against BENCHMARK.json.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "probes.hh"
#include "sim/json.hh"
#include "workloads.hh"

using namespace csbbench;

namespace {

/** Set-up samples taken back to back before the loop. */
constexpr int kInitialSetups = 3;

/**
 * Set-up samples inside the timed loop are evenly spaced, one per
 * kSetupSpacing sample lengths of units (so sampling adds a tenth to
 * the run), but at least kMinSpreadSetups and at most kMaxSpreadSetups
 * of them.
 */
constexpr double kSetupSpacing = 10;
constexpr double kMinSpreadSetups = 20;
constexpr double kMaxSpreadSetups = 200;

/**
 * Shortest set-up sample: a set-up shorter than this is repeated until
 * the sample lasts this long, and the sample is its mean.  A set-up of
 * a quarter of a millisecond timed once is noise.
 */
constexpr double kMinSetupSampleS = 0.02;

/** Fewest repetitions of every unit in the end-to-end loop. */
constexpr std::size_t kMinRepeats = 3;

#ifndef CSBBENCH_SANITIZER
#define CSBBENCH_SANITIZER ""
#endif

/** Why timings from this binary cannot be trusted, or "". */
std::string
buildProblem()
{
    std::string problem;
#if !defined(__OPTIMIZE__)
    problem += "unoptimised build; ";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    problem += "sanitizer compiled in; ";
#endif
    if (std::strlen(CSBBENCH_SANITIZER) != 0)
        problem += std::string("built with -fsanitize; ");
    return problem;
}

struct Metric
{
    const char *name;
    const char *unit;
    const char *better;
    /** Deterministic: identical on every run of the same seed. */
    bool exact = false;
};

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"sim_ticks_per_s", "1/s", "higher"},
    {"insts_per_s", "1/s", "higher"},
    {"bus_txns_per_s", "1/s", "higher"},
    {"items_per_s", "1/s", "higher"},
    {"peak_rss_mb", "MiB", "lower"},
    {"sim_cycles_per_item", "cycles", "lower"},
};

/** Per-layer metrics (--trace 1), in BENCHMARK.json order. */
const std::vector<Metric> kPerLayer = {
    // Host time, split by boundary probes and public-call timers.
    {"cpu.tick_s", "s", "lower"},
    {"cpu.sched_tick_s", "s", "lower"},
    {"core.replay_tick_s", "s", "lower"},
    {"mem.buffers_tick_s", "s", "lower"},
    {"bus.tick_s", "s", "lower"},
    {"io.tick_s", "s", "lower"},
    {"sim.events_s", "s", "lower"},
    {"sim.trace_load_s", "s", "lower"},
    {"core.build_s", "s", "lower"},
    {"isa.assemble_s", "s", "lower"},
    {"litmus.generate_s", "s", "lower"},
    {"cpu.reference_s", "s", "lower"},
    {"trace.other_s", "s", "lower"},
    {"trace.timed_s", "s", "lower"},
    {"trace.probe_cost_s", "s", "lower"},
    {"trace.overhead_ratio", "ratio", "lower"},
    {"host.slowdown", "ratio", "lower"},
    {"sim.fastforward_share", "ratio", "higher", true},
    {"litmus.run_case_s", "s", "lower"},
    {"sim.host_ns_per_tick", "ns", "lower"},
    {"sim.host_ns_per_event", "ns", "lower"},
    {"core.sweep_busy_share", "ratio", "higher"},
    {"core.point_ms.p50", "ms", "lower"},
    {"core.point_ms.p99", "ms", "lower"},
    {"core.point_ms.samples", "count", "higher"},
    {"litmus.spec_ms.p50", "ms", "lower"},
    {"litmus.spec_ms.p99", "ms", "lower"},
    {"litmus.spec_ms.samples", "count", "higher"},
    // Exact counts over one cycle of the workload's inputs.
    {"cpu.instsRetired", "count", "higher", true},
    {"cpu.numCycles", "cycles", "lower", true},
    {"cpu.ipc", "ratio", "higher", true},
    {"cpu.uncachedRetireStallCycles", "cycles", "lower", true},
    {"cpu.membarStallCycles", "cycles", "lower", true},
    {"cpu.csbStoreStallCycles", "cycles", "lower", true},
    {"cpu.windowFullStallCycles", "cycles", "lower", true},
    {"cpu.branchFetchStallCycles", "cycles", "lower", true},
    {"mem.ubuf.coalesce_ratio", "ratio", "higher", true},
    {"mem.csb.flush_success_ratio", "ratio", "higher", true},
    {"mem.csb.fillAtFlush.mean", "B", "higher", true},
    {"mem.caches.l1.hit_ratio", "ratio", "higher", true},
    {"mem.caches.upgrades", "count", "lower", true},
    {"mem.caches.cacheToCacheFills", "count", "higher", true},
    {"bus.numWrites", "count", "lower", true},
    {"bus.numReads", "count", "lower", true},
    {"bus.utilization", "ratio", "higher", true},
    {"bus.orderingStallCycles", "cycles", "lower", true},
    {"bus.txnLatencyCycles.p50", "cycles", "lower", true},
    {"bus.txnLatencyCycles.p99", "cycles", "lower", true},
    {"bus.numNacks", "count", "lower", true},
    {"bus.snoopProbes", "count", "lower", true},
    {"io.ni.pioMessages", "count", "higher", true},
    {"io.ni.wireBusyTicks", "cycles", "lower", true},
    {"io.ni.retransmits", "count", "lower", true},
    {"io.dev.writesReceived", "count", "lower", true},
    {"sim.tickLimitHits", "count", "lower", true},
    {"litmus.specs_run", "count", "higher", true},
    {"litmus.discrepancies", "count", "lower", true},
    {"sim.csb_1k_bytes_per_bus_cycle", "B/cycle", "higher", true},
    {"sim.csb_cycles_per_msg", "cycles", "lower", true},
    {"sim.lock_cycles_per_msg", "cycles", "lower", true},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool seedGiven = false;
    bool listMetrics = false;
};

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    const char *end = s + std::strlen(s);
    auto [ptr, ec] = std::from_chars(s, end, out);
    return ec == std::errc() && ptr == end && ptr != s;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--list-metrics") {
            args.listMetrics = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = flag + " needs a value";
            return false;
        }
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed" && parseUnsigned(value, n)) {
            args.seed = n;
            args.seedGiven = true;
        } else if (flag == "--seconds" && parseUnsigned(value, n) &&
                   n >= 1 && n <= 3600) {
            args.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
            args.trace = static_cast<int>(n);
        } else {
            error = "bad argument " + flag + " " + value;
            return false;
        }
    }
    if (args.listMetrics)
        return true;
    if (args.workload.empty() || !args.seedGiven || args.seconds == 0 ||
        args.trace < 0) {
        error = "usage: csbbench --workload <name> --seed <n> "
                "--seconds <s> --trace <0|1>";
        return false;
    }
    return true;
}

/**
 * Peak resident set of this process image, MiB: VmHWM from
 * /proc/self/status.  Not getrusage's ru_maxrss, which keeps the peak
 * of the process that exec'ed this one (the Python wrapper).
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
printMetricList(const std::vector<Metric> &list, csb::sim::JsonWriter &jw)
{
    jw.beginArray();
    for (const Metric &m : list) {
        jw.beginObject();
        jw.kv("name", m.name);
        jw.kv("unit", m.unit);
        jw.kv("better", m.better);
        jw.kv("exact", m.exact);
        jw.endObject();
    }
    jw.endArray();
}

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<const Metric *, double>> metrics;

    void
    fail(const std::string &what)
    {
        failed += 1;
        if (errors.size() < 5)
            errors.push_back(what);
    }

    void
    absorb(const UnitResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors) {
            if (errors.size() < 5)
                errors.push_back(e);
        }
    }
};

void
setMetric(Outcome &out, const std::vector<Metric> &table,
          const std::string &name, double value)
{
    for (const Metric &m : table) {
        if (name == m.name) {
            out.metrics.emplace_back(&m, value);
            return;
        }
    }
    std::cerr << "csbbench: internal error: no metric " << name << "\n";
    std::exit(2);
}

/**
 * Time of the calibration kernel (HostSpeed::sample) at full speed on
 * the host the bounds were set on: a 4-vCPU KVM guest on a shared
 * Xeon, best of many runs.
 */
constexpr double kReferenceCalibrationS = 2.08e-3;

/** Seconds of units between two calibration samples. */
constexpr double kCalibrateEvery = 0.1;

/**
 * The host's speed, from a fixed kernel that shares no code with the
 * simulator: a linear congruential generator scattering adds over a
 * 256 KiB table.  Its fastest run against kReferenceCalibrationS is
 * the host's slowdown.  Host-time metrics are scaled by it to the
 * reference host, because shared hosts change speed by up to 40% for
 * tens of minutes at a time, which no statistic inside one run can
 * remove; the same hosts also slow down for seconds at a time, which
 * the fastest-of-many samples skips.
 */
class HostSpeed
{
  public:
    void
    sample()
    {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < 2'000'000; ++i) {
            x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
            table_[(x_ >> 40) & (table_.size() - 1)] +=
                static_cast<std::uint32_t>(x_);
        }
        double s = secondsSince(start);
        best_ = samples_++ ? std::min(best_, s) : s;
    }

    /** Fastest sample ÷ reference: above 1 on a slower host. */
    double slowdown() const { return best_ / kReferenceCalibrationS; }

    std::size_t samples() const { return samples_; }

    /** Depends on every step, so the kernel cannot be optimised away. */
    std::uint32_t checksum() const { return table_[x_ & 0xffff]; }

  private:
    std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(1 << 16);
    std::uint64_t x_ = 1;
    double best_ = 0;
    std::size_t samples_ = 0;
};

/**
 * Set-up time.  A sample runs every set-up step, each repeated back to
 * back until it lasts kMinSetupSampleS; set-up time is the sum of each
 * step's fastest call, as a rate uses the sum of each unit's fastest
 * repetition.  The fastest for the reason given at runEndToEnd; step
 * by step because a short step lands inside one of the host's fast
 * stretches more often than a whole set-up of a tenth of a second does.
 */
class SetupTimes
{
  public:
    /** Take one sample; returns its host seconds. */
    double
    sample(Workload &w)
    {
        Clock::time_point whole = Clock::now();
        best_.resize(w.setupSteps());
        for (std::size_t k = 0; k < best_.size(); ++k) {
            Clock::time_point start = Clock::now();
            int n = 0;
            do {
                w.setup(k);
                ++n;
            } while (secondsSince(start) < kMinSetupSampleS);
            double s = secondsSince(start) / n;
            best_[k] = samples_ ? std::min(best_[k], s) : s;
        }
        ++samples_;
        return secondsSince(whole);
    }

    /** Host seconds of one set-up, from each step's fastest call. */
    double
    fastest() const
    {
        double sum = 0;
        for (double s : best_)
            sum += s;
        return sum;
    }

    std::size_t samples() const { return samples_; }

  private:
    std::vector<double> best_;
    std::size_t samples_ = 0;
};

/** Simulated work of one unit and its fastest repetition. */
struct UnitStats
{
    std::size_t runs = 0;
    double best = 0;
    double ticks = 0, insts = 0, busTxns = 0, items = 0;
};

/**
 * --trace 0: the end-to-end measurement.  Every unit of the cycle
 * repeats until @p seconds of units have run (and at least
 * kMinRepeats times); a rate is the cycle's work over the sum of each
 * unit's fastest repetition.  Set-up is sampled at evenly spaced
 * points of the loop (SetupTimes).  The fastest
 * repetition, not the median, because hosts shared with other
 * machines' work alternate for seconds at a time between full speed
 * and about half of it; the fastest repetition spread over the whole
 * run is the statistic that stays steady from run to run.  Host times
 * are then scaled to the reference host (HostSpeed).
 */
void
runEndToEnd(Workload &w, double seconds, SetupTimes &setup,
            double sample_s, HostSpeed &host, Outcome &out)
{
    std::size_t cycle = w.cycleLength();
    std::vector<UnitStats> units(cycle);
    std::map<std::string, double> figures;
    double elapsed = 0;
    double setup_every =
        std::clamp(kSetupSpacing * sample_s, seconds / kMaxSpreadSetups,
                   seconds / kMinSpreadSetups);
    double next_setup = setup_every;
    double next_calibration = 0;
    std::size_t i = 0;
    for (; elapsed < seconds || i < cycle * kMinRepeats; ++i) {
        if (elapsed >= next_calibration) {
            host.sample();
            next_calibration += kCalibrateEvery;
        }
        Clock::time_point start = Clock::now();
        UnitResult r = w.runUnit(i % cycle, Mode::Plain);
        double dur = secondsSince(start) - r.untimedS;
        elapsed += dur;
        out.absorb(r);

        UnitStats &u = units[i % cycle];
        UnitStats now{u.runs + 1, u.runs ? std::min(u.best, dur) : dur,
                      r.ticks, r.insts, r.busTxns,
                      static_cast<double>(r.items)};
        if (u.runs == 0) {
            for (const auto &[k, v] : r.figures)
                figures[k] += v;
        } else if (now.ticks != u.ticks || now.insts != u.insts ||
                   now.busTxns != u.busTxns || now.items != u.items) {
            out.fail("unit " + std::to_string(i % cycle) +
                     ": simulated work differs between repetitions");
        }
        out.attempted += u.runs ? 1 : 0;
        u = now;

        if (elapsed >= next_setup) {
            setup.sample(w);
            next_setup += setup_every;
        }
    }

    UnitStats sum;
    std::size_t fewest = i;
    for (const UnitStats &u : units) {
        sum.best += u.best;
        sum.ticks += u.ticks;
        sum.insts += u.insts;
        sum.busTxns += u.busTxns;
        sum.items += u.items;
        fewest = std::min(fewest, u.runs);
    }
    // Reference-host seconds: host seconds ÷ the host's slowdown.
    double slowdown = host.slowdown();
    auto rate = [&](double work) {
        return sum.best ? work / sum.best * slowdown : 0;
    };
    setMetric(out, kEndToEnd, "setup_s", setup.fastest() / slowdown);
    setMetric(out, kEndToEnd, "sim_ticks_per_s", rate(sum.ticks));
    setMetric(out, kEndToEnd, "insts_per_s", rate(sum.insts));
    setMetric(out, kEndToEnd, "bus_txns_per_s", rate(sum.busTxns));
    setMetric(out, kEndToEnd, "items_per_s", rate(sum.items));
    setMetric(out, kEndToEnd, "peak_rss_mb", peakRssMiB());
    setMetric(out, kEndToEnd, "sim_cycles_per_item",
              sum.items ? sum.ticks / sum.items : 0);

    std::cout << "units " << i << " in " << elapsed << " s, cycle of "
              << cycle << ", each unit run at least " << fewest
              << " times; host items/s: mean "
              << sum.items * i / cycle / elapsed << ", best repetitions "
              << rate(sum.items) / slowdown << "\n";
    std::cout << "set-up samples " << setup.samples() << " of "
              << w.setupSteps() << " step(s): fastest " << setup.fastest()
              << " s (host seconds)\n";
    std::cout << "host slowdown " << slowdown << " (fastest of "
              << host.samples() << " calibration runs vs "
              << kReferenceCalibrationS << " s; checksum "
              << host.checksum() << ")\n";
    for (const auto &[k, v] : w.simFigures(figures))
        std::cout << "sim figure " << k << " = " << v << "\n";
}

/**
 * --trace 1: untraced and traced runs of every unit, split by layer.
 * Host times here are host seconds, not scaled; host.slowdown says how
 * fast the host was.
 */
void
runTraced(Workload &w, double seconds, HostSpeed &host, Outcome &out)
{
    // plain: untraced timings; ref: untraced, stats captured; tr: traced.
    UnitResult plain, ref, tr;
    Tally cycle_tally;
    std::map<std::string, double> figures;
    std::size_t cycle = w.cycleLength();
    double plain_wall = 0;
    Clock::time_point loop = Clock::now();
    for (std::size_t i = 0; secondsSince(loop) < seconds || i < cycle;
         ++i) {
        host.sample();
        Clock::time_point start = Clock::now();
        UnitResult p = w.runUnit(i % cycle, Mode::Plain);
        plain_wall += secondsSince(start) - p.untimedS;
        UnitResult r = w.runUnit(i % cycle, Mode::Reference);
        UnitResult t = w.runUnit(i % cycle, Mode::Traced);
        out.absorb(p);
        out.absorb(r);
        out.absorb(t);
        out.attempted += 1;
        if (r.statsJson != t.statsJson) {
            out.fail("unit " + std::to_string(i % cycle) +
                     ": traced stats differ from untraced");
        }
        if (i < cycle) {
            cycle_tally += r.tally;
            for (const auto &[k, v] : p.figures)
                figures[k] += v;
        }
        r.statsJson.clear();
        t.statsJson.clear();
        r.tally = Tally();
        plain.merge(std::move(p));
        ref.merge(std::move(r));
        tr.merge(std::move(t));
    }

    const LayerTimes &h = tr.host;
    auto set = [&](const std::string &name, double v) {
        setMetric(out, kPerLayer, name, v);
    };
    set("cpu.tick_s", h[Layer::Cpu]);
    set("cpu.sched_tick_s", h[Layer::Sched]);
    set("core.replay_tick_s", h[Layer::ReplayCore]);
    set("mem.buffers_tick_s", h[Layer::Buffers]);
    set("bus.tick_s", h[Layer::Bus]);
    set("io.tick_s", h[Layer::Io]);
    set("sim.events_s", h[Layer::Events]);
    set("sim.trace_load_s", h[Layer::TraceLoad]);
    set("core.build_s", h[Layer::Build]);
    set("isa.assemble_s", h[Layer::Assemble]);
    set("litmus.generate_s", h[Layer::Generate]);
    set("cpu.reference_s", h[Layer::Reference]);
    set("trace.other_s", tr.busyS - h.total());
    set("trace.timed_s", tr.busyS);
    set("trace.probe_cost_s", h[Layer::Probe]);
    set("trace.overhead_ratio", ref.busyS ? tr.busyS / ref.busyS : 0);
    set("host.slowdown", host.slowdown());
    const Tally &c = cycle_tally;
    set("sim.fastforward_share", c.ratio("sim.ffTicks", "sim.ticks"));
    // litmus_sweep's plain units are nothing but runCase calls.
    const char *timed_items = w.itemLatencyName();
    bool litmus = timed_items && std::strcmp(timed_items, "litmus.spec_ms") == 0;
    set("litmus.run_case_s", litmus ? plain.busyS : 0);
    set("sim.host_ns_per_tick", ref.ticks ? ref.busyS / ref.ticks * 1e9 : 0);
    set("sim.host_ns_per_event",
        ref.events ? ref.busyS / ref.events * 1e9 : 0);
    set("core.sweep_busy_share",
        plain_wall ? plain.busyS / (w.workers() * plain_wall) : 0);
    auto samples = static_cast<double>(plain.itemMs.size());
    for (const char *name : {"core.point_ms", "litmus.spec_ms"}) {
        bool on = timed_items && std::strcmp(timed_items, name) == 0;
        std::string n = name;
        set(n + ".p50", on ? percentile(plain.itemMs, 0.5) : 0);
        set(n + ".p99", on ? percentile(plain.itemMs, 0.99) : 0);
        set(n + ".samples", on ? samples : 0);
    }

    set("cpu.instsRetired", c.get("cpu.instsRetired"));
    set("cpu.numCycles", c.get("cpu.numCycles"));
    set("cpu.ipc", c.ratio("cpu.instsRetired", "cpu.numCycles"));
    for (const char *stall :
         {"uncachedRetireStallCycles", "membarStallCycles",
          "csbStoreStallCycles", "windowFullStallCycles",
          "branchFetchStallCycles"}) {
        set(std::string("cpu.") + stall, c.get(std::string("cpu.") + stall));
    }
    set("mem.ubuf.coalesce_ratio",
        c.ratio("ubuf.storesCoalesced", "ubuf.storesPushed"));
    set("mem.csb.flush_success_ratio",
        c.ratio("csb.flushesSucceeded", "csb.flushesAttempted"));
    set("mem.csb.fillAtFlush.mean",
        c.ratio("csb.fillAtFlush::sum", "csb.fillAtFlush::samples"));
    double l1_accesses = c.get("caches.l1.hits") + c.get("caches.l1.misses");
    set("mem.caches.l1.hit_ratio",
        l1_accesses ? c.get("caches.l1.hits") / l1_accesses : 0);
    set("mem.caches.upgrades", c.get("caches.upgrades"));
    set("mem.caches.cacheToCacheFills", c.get("caches.cacheToCacheFills"));
    set("bus.numWrites", c.get("bus.numWrites"));
    set("bus.numReads", c.get("bus.numReads"));
    set("bus.utilization", c.ratio("bus.busyDataCycles", "sim.busCycles"));
    set("bus.orderingStallCycles", c.get("bus.orderingStallCycles"));
    set("bus.txnLatencyCycles.p50", c.percentile("bus.txnLatencyCycles", 0.5));
    set("bus.txnLatencyCycles.p99",
        c.percentile("bus.txnLatencyCycles", 0.99));
    set("bus.numNacks", c.get("bus.numNacks"));
    set("bus.snoopProbes", c.get("bus.snoopProbes"));
    set("io.ni.pioMessages", c.get("ni.pioMessages"));
    set("io.ni.wireBusyTicks", c.get("ni.wireBusyTicks"));
    set("io.ni.retransmits", c.get("ni.retransmits"));
    set("io.dev.writesReceived", c.get("dev.writesReceived"));
    set("sim.tickLimitHits", c.get("sim.tickLimitHits"));
    std::map<std::string, double> sim = w.simFigures(figures);
    auto figure = [&](const char *k) {
        return sim.count(k) ? sim.at(k) : 0.0;
    };
    set("litmus.specs_run", figure("specs_run"));
    set("litmus.discrepancies", figure("discrepancies"));
    set("sim.csb_1k_bytes_per_bus_cycle",
        figure("csb_1k_bytes_per_bus_cycle"));
    set("sim.csb_cycles_per_msg", figure("csb_cycles_per_msg"));
    set("sim.lock_cycles_per_msg", figure("lock_cycles_per_msg"));

    std::cout << "traced " << tr.busyS << " s of units, untraced "
              << ref.busyS << " s; other (unattributed) "
              << tr.busyS - h.total() << " s\n";
}

std::string
hostName()
{
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error)) {
        std::cerr << "csbbench: " << error << "\n";
        return 2;
    }
    if (args.listMetrics) {
        csb::sim::JsonWriter jw(std::cout, 0);
        jw.beginObject();
        jw.key("workloads").beginArray();
        for (const std::string &name : workloadNames())
            jw.value(name);
        jw.endArray();
        jw.key("end_to_end");
        printMetricList(kEndToEnd, jw);
        jw.key("per_layer");
        printMetricList(kPerLayer, jw);
        jw.endObject();
        std::cout << "\n";
        return 0;
    }
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w) {
        std::cerr << "csbbench: unknown workload " << args.workload << "\n";
        return 2;
    }
    std::string problem = buildProblem();
    {
        csb::sim::JsonWriter jw(std::cout, 0);
        std::cout << "meta ";
        jw.beginObject();
        jw.kv("workload", args.workload);
        jw.kv("seed", args.seed);
        jw.kv("seconds", args.seconds);
        jw.kv("trace", args.trace);
        jw.kv("host", hostName());
        jw.kv("nproc", std::thread::hardware_concurrency());
        jw.kv("compiler", CSBBENCH_COMPILER);
        jw.kv("build_type", CSBBENCH_BUILD_TYPE);
        jw.kv("sanitizer", std::strlen(CSBBENCH_SANITIZER)
                               ? CSBBENCH_SANITIZER
                               : "none");
        jw.kv("timings_valid", problem.empty());
        jw.endObject();
        std::cout << "\n";
    }
    if (!problem.empty()) {
        std::cerr << "csbbench: timings invalid (" << problem
                  << "); build with an optimised, unsanitized "
                     "configuration\n";
        return 3;
    }

    Outcome out;
    try {
        HostSpeed host;
        SetupTimes setup;
        double sample_s = 0;
        for (int i = 0; i < kInitialSetups; ++i)
            sample_s = setup.sample(*w);
        if (args.trace == 0)
            runEndToEnd(*w, args.seconds, setup, sample_s, host, out);
        else
            runTraced(*w, args.seconds, host, out);
    } catch (const std::exception &e) {
        std::cerr << "csbbench: " << e.what() << "\n";
        return 1;
    }
    for (const std::string &e : out.errors)
        std::cout << "FAILED: " << e << "\n";
    bool correct = out.failed == 0;

    csb::sim::JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.kv("correct", correct);
    jw.kv("attempted", out.attempted);
    jw.kv("failed", out.failed);
    jw.key("metrics").beginObject();
    for (const auto &[m, v] : out.metrics) {
        jw.key(m->name).beginObject();
        jw.kv("value", std::isfinite(v) ? v : 0.0);
        jw.kv("unit", m->unit);
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
    std::cout << std::endl;
    return correct ? 0 : 1;
}
