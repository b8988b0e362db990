/**
 * @file
 * The benchmark's four workloads (see perfbench/README.md for why each
 * exists and which layer it stresses).
 *
 * A workload is a cyclic list of units -- a whole paper-grid pass, one
 * message run, one trace replay, one litmus seed -- run in a closed
 * loop: the next unit starts when the previous one has finished.
 * Every unit checks its own outputs.
 */

#ifndef CSBBENCH_WORKLOADS_HH
#define CSBBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hh"

namespace csbbench {

/** How a unit runs. */
enum class Mode {
    Plain,     ///< as a user runs it; the end-to-end measurement
    Reference, ///< untraced, with every System's stats captured
    Traced,    ///< with probes and timers, stats captured
};

/** What one unit (or a sum of units) did. */
struct UnitResult
{
    /** Checked operations and how many of them failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Work items: grid points, messages, trace records, specs. */
    std::uint64_t items = 0;

    /** Simulated ticks, retired instructions, bus transactions. */
    double ticks = 0;
    double insts = 0;
    double busTxns = 0;
    /** Events processed. */
    double events = 0;

    /**
     * Host seconds the unit's simulations took, summed over worker
     * threads (stats capture excluded).
     */
    double busyS = 0;
    /** Per-item host latency samples, ms (see itemLatencyName). */
    std::vector<double> itemMs;
    /**
     * Host seconds spent inside the unit on work that is not part of
     * the measurement (learning simulated counts once); the harness
     * takes them out of the elapsed time.
     */
    double untimedS = 0;

    /** Traced mode: where busyS went. */
    LayerTimes host;
    /** Reference and Traced: dumpStatsJson of every System, in order. */
    std::vector<std::string> statsJson;
    /** Reference: stats-tree sums plus benchmark-side counters. */
    Tally tally;
    /** Workload figures, summed (e.g. "csb_cycles", "csb_msgs"). */
    std::map<std::string, double> figures;
    /** First few failure descriptions. */
    std::vector<std::string> errors;

    void merge(UnitResult &&other);
    void fail(const std::string &what);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Independent parts of set-up, each timed on its own. */
    virtual std::size_t setupSteps() const { return 1; }

    /**
     * Build the inputs and the expected outputs of set-up step
     * @p step; running every step builds them all.  Called many times
     * (set-up time is each step's fastest call, summed); each call
     * replaces that step's previous state.
     */
    virtual void setup(std::size_t step) = 0;

    /** Units before the inputs repeat. */
    virtual std::size_t cycleLength() const = 0;

    /**
     * Per-layer metric prefix for per-item host latency
     * ("<prefix>.p50/p99/samples"), or null when items are not timed
     * one by one.
     */
    virtual const char *itemLatencyName() const { return nullptr; }

    /** Worker threads a unit runs on. */
    virtual unsigned workers() const { return 1; }

    /** Run unit @p index (< cycleLength()). */
    virtual UnitResult runUnit(std::size_t index, Mode mode) = 0;

    /**
     * Exact simulated figures of the workload, from the figures of one
     * cycle of Plain units (name -> value).
     */
    virtual std::map<std::string, double>
    simFigures(const std::map<std::string, double> &figures) const
    {
        (void)figures;
        return {};
    }
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** @return the workload, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace csbbench

#endif // CSBBENCH_WORKLOADS_HH
