/**
 * @file
 * Host-time and simulated-count instrumentation of the benchmark.
 *
 * Everything here works from outside the simulator, through its
 * public API only:
 *
 *  - ProbeSet registers seven never-gating sim::Clocked probes with a
 *    System's Simulator, at evaluation orders between the existing
 *    bands (bus -10, uncached buffer and CSB -5, NI -3, Core or
 *    ReplayCore 0, ContextScheduler 5).  The host time between two
 *    consecutive probes is the self time of the band between them;
 *    the gap from a tick's last probe to the next tick's first probe
 *    is event servicing plus the run loop.  One band is left empty on
 *    purpose: its time is the cost of one probe, which is subtracted
 *    from every band.
 *  - Tally sums a System's stats tree (its text dump, printed at full
 *    precision) across many Systems, so per-layer counts and ratios
 *    come with their exact bases.
 */

#ifndef CSBBENCH_PROBES_HH
#define CSBBENCH_PROBES_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/clocked.hh"
#include "sim/simulator.hh"

namespace csbbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Where a traced run's host time went. */
enum class Layer : std::size_t {
    Bus,          ///< SystemBus::tick (band -10)
    Buffers,      ///< UncachedBuffer and CSB ticks (band -5)
    Io,           ///< NetworkInterface::tick (band -3)
    Cpu,          ///< cpu::Core::tick (band 0, execute mode)
    ReplayCore,   ///< core::ReplayCore::tick (band 0, replay mode)
    Sched,        ///< cpu::ContextScheduler::tick (band 5)
    Events,       ///< event callbacks and the run loop between ticks
    Probe,        ///< calibrated cost of the probes themselves
    Build,        ///< core::System construction
    Assemble,     ///< kernel generators and litmus lowering (isa)
    Reference,    ///< cpu::ReferenceExecutor runs
    Generate,     ///< litmus::generate
    TraceLoad,    ///< sim::MemTrace parsing
    Count
};

/** Host seconds per Layer. */
struct LayerTimes
{
    std::array<double, static_cast<std::size_t>(Layer::Count)> s{};

    double &operator[](Layer l) { return s[static_cast<std::size_t>(l)]; }
    double operator[](Layer l) const
    {
        return s[static_cast<std::size_t>(l)];
    }
    double total() const;
    LayerTimes &operator+=(const LayerTimes &o);
};

/**
 * The probes of one Simulator.  Construct after the System (the
 * Simulator sorts by evaluation order, so components registered later,
 * such as a ContextScheduler or a lazily built ReplayCore, still land
 * in their band).  The probes never gate, so they also switch off the
 * quiescent fast-forward: a traced run steps every tick.  Simulated
 * behaviour is unchanged -- gating and fast-forward are unobservable.
 */
class ProbeSet
{
  public:
    /** @param replay_mode attribute band 0 to ReplayCore, not Core */
    ProbeSet(csb::sim::Simulator &sim, bool replay_mode);

    ProbeSet(const ProbeSet &) = delete;
    ProbeSet &operator=(const ProbeSet &) = delete;

    /** Add the calibrated self times to @p out. */
    void addTo(LayerTimes &out) const;

    /** Ticks the probes observed. */
    std::uint64_t ticks() const { return ticks_; }

  private:
    static constexpr int kProbes = 7;

    class Probe : public csb::sim::Clocked
    {
      public:
        Probe(ProbeSet &set, int slot, int order);
        void tick() override { set_.hit(slot_); }

      private:
        ProbeSet &set_;
        int slot_;
    };

    void hit(int slot);

    bool replayMode_;
    std::vector<std::unique_ptr<Probe>> probes_;
    /** gap_[i]: seconds from probe i to the next probe fired. */
    std::array<double, kProbes> gap_{};
    std::uint64_t ticks_ = 0;
    bool started_ = false;
    int last_ = 0;
    Clock::time_point lastAt_;
};

/** Stats-tree sums over many Systems. */
class Tally
{
  public:
    /**
     * Add every stat of @p text, a StatGroup::dumpStats() dump printed
     * with 17 significant digits.  Per-core group names (cpu1, csb0,
     * ...) fold into one key; distribution buckets merge.
     */
    void addDump(const std::string &text);

    /**
     * Learn the bucket widths of the merged distributions from
     * @p json, the same System's dumpStatsJson document.
     */
    void addBucketWidths(const std::string &json);

    /** Add every sum and bucket of @p other. */
    Tally &operator+=(const Tally &other);

    /** Add @p v to the benchmark-side counter @p key. */
    void add(const std::string &key, double v) { sums_[key] += v; }

    /** Sum of @p key, 0 when absent. */
    double get(const std::string &key) const;

    /** @p num / @p den over sums, 0 when the base is 0. */
    double ratio(const std::string &num, const std::string &den) const;

    /**
     * Percentile @p p (0..1) of the merged distribution @p key: the
     * upper edge of the bucket holding it, as
     * sim::stats::Distribution::percentile reports it.
     */
    double percentile(const std::string &key, double p) const;

  private:
    std::map<std::string, double> sums_;
    std::map<std::string, std::map<double, double>> hists_;
    std::map<std::string, double> widths_;
};

/** Percentile @p p (0..1) of @p v by nearest rank; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** StatGroup::dumpStats of @p group at full precision. */
template <typename Group>
std::string
fullDump(const Group &group)
{
    std::ostringstream os;
    os.precision(17);
    group.dumpStats(os);
    return os.str();
}

} // namespace csbbench

#endif // CSBBENCH_PROBES_HH
