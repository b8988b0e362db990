/**
 * @file
 * Shared helpers for the figure-regeneration bench binaries.
 *
 * Each binary runs its experiments from main(), prints the
 * paper-style series table(s) for its figure panel group and, with
 * `--json`, writes the same results as a machine-readable artifact.
 * Simulations are deterministic, so every point runs once.
 * parseArgs() is the one command-line parser of every binary, and
 * bestSecondsPerCall() the one timing rule of the wall-clock gates;
 * both are described in docs/PERF.md.
 */

#ifndef CSB_BENCH_COMMON_HH
#define CSB_BENCH_COMMON_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiments.hh"
#include "core/sweep.hh"
#include "sim/json.hh"

namespace csb::bench {

/**
 * One command-line flag of a bench binary, given as `--name V` or
 * `--name=V`; parseArgs() stores V through the pointer.
 */
struct Flag
{
    const char *name;
    std::variant<std::string *, unsigned *, double *> value;
};

/** The flags every bench binary accepts. */
struct BenchArgs
{
    /** `--json PATH`: also write a csbsim-bench-1 artifact there. */
    std::string json;
    /**
     * `--jobs N`: worker count for the binary's SweepRunner.  0 (the
     * default) means one per hardware thread, 1 is the exact serial
     * path.  Results are byte-identical for every value -- the runner
     * collects by point index -- so the flag only changes wall-clock.
     */
    unsigned jobs = 0;
};

namespace detail {

inline bool
parseValue(const std::string &text, std::string *slot)
{
    *slot = text;
    return true;
}

template <typename T>
bool
parseValue(const std::string &text, T *slot)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return false;
    }
    *slot = value;
    return true;
}

/** Print @p why and the usage line to stderr, then exit 2. */
[[noreturn]] inline void
usageError(const char *prog, const std::vector<Flag> &flags,
           const std::string &why)
{
    // Indexed like the alternatives of Flag::value.
    static const char *const meta[] = {"PATH", "N", "X"};
    std::string usage = std::string("usage: ") + prog;
    for (const Flag &flag : flags) {
        usage += std::string(" [") + flag.name + " " +
                 meta[flag.value.index()] + "]";
    }
    std::fprintf(stderr, "%s: %s\n%s\n", prog, why.c_str(),
                 usage.c_str());
    std::exit(2);
}

} // namespace detail

/**
 * Parse argv strictly against `--json`, `--jobs` and the binary's own
 * @p extra flags.  Anything else -- an unknown flag or argument, a
 * missing or empty value, a malformed number -- prints usage to
 * stderr and exits 2, so a mistyped flag can never silently turn a
 * gate off.
 */
inline BenchArgs
parseArgs(int argc, char **argv, std::initializer_list<Flag> extra = {})
{
    BenchArgs args;
    std::vector<Flag> flags = {{"--json", &args.json},
                               {"--jobs", &args.jobs}};
    flags.insert(flags.end(), extra);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string name = arg.substr(0, arg.find('='));
        auto flag = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag &f) { return name == f.name; });
        if (flag == flags.end())
            detail::usageError(argv[0], flags,
                               "unknown argument '" + arg + "'");
        // The space form never takes a following "-..." argument as
        // its value: `--json --jobs 4` is a missing value, not a file.
        std::string value;
        if (name.size() < arg.size())
            value = arg.substr(name.size() + 1);
        else if (i + 1 < argc && argv[i + 1][0] != '-')
            value = argv[++i];
        if (value.empty()) {
            detail::usageError(argv[0], flags,
                               "missing value for " + name);
        }
        auto parse = [&](auto *slot) {
            return detail::parseValue(value, slot);
        };
        if (!std::visit(parse, flag->value)) {
            detail::usageError(argv[0], flags,
                               "bad value '" + value + "' for " + name);
        }
    }
    return args;
}

/**
 * Keep @p value observable so the optimiser cannot drop the timed
 * work that produced it.  An empty asm barrier, the same one
 * google-benchmark's DoNotOptimize emits on GCC, so it adds no work.
 */
template <typename T>
inline void
keep(const T &value)
{
    if constexpr (std::is_trivially_copyable_v<T> &&
                  sizeof(T) <= sizeof(T *))
        asm volatile("" : : "r,m"(value) : "memory");
    else
        asm volatile("" : : "m"(value) : "memory");
}

/** Wall-clock seconds since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Each timed run repeats its work until it has lasted this long. */
constexpr double kMinTimedSeconds = 0.25;
/** Timed runs per side; the fastest counts. */
constexpr int kTimedRuns = 3;

/**
 * One timed run: call @p work until @p min_seconds have passed, so
 * no run is too short to time against start-up cost and neighbouring
 * load.  @return the seconds per call.
 */
template <typename Work>
double
secondsPerCall(Work &&work, double min_seconds = kMinTimedSeconds)
{
    unsigned calls = 0;
    double elapsed = 0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        work();
        ++calls;
        elapsed = secondsSince(t0);
    } while (elapsed < min_seconds);
    return elapsed / calls;
}

/**
 * The timing rule of the wall-clock gates: each side is the best of
 * kTimedRuns secondsPerCall() runs, and the runs of all sides are
 * interleaved so that a slow spell of the host hits every side alike.
 * @return the best seconds per call of each side, in order.
 */
inline std::vector<double>
bestSecondsPerCall(std::initializer_list<std::function<void()>> sides)
{
    std::vector<double> best(sides.size(), 1e30);
    for (int run = 0; run < kTimedRuns; ++run) {
        std::size_t i = 0;
        for (const std::function<void()> &side : sides) {
            best[i] = std::min(best[i], secondsPerCall(side));
            ++i;
        }
    }
    return best;
}

/**
 * Machine-readable companion to the printed tables.
 *
 * Every bench binary owns one JsonReport.  Given a `--json` path,
 * finish() writes a `BENCH_<name>.json`-style artifact with the
 * structured series (`tables`) plus the exact text the binary printed
 * (`rendered`), which tools/regen_experiments splices back into
 * EXPERIMENTS.md.  Without a path the report only forwards text to
 * stdout.
 */
class JsonReport
{
  public:
    JsonReport(std::string name, std::string path)
        : name_(std::move(name)), path_(std::move(path))
    {}

    /**
     * Write the artifact (when a path was given) and return @p status
     * for main() to exit with -- or 1 if the artifact could not be
     * written, so a bad `--json` path never passes silently.
     */
    int
    finish(int status = 0)
    {
        if (path_.empty())
            return status;
        std::ofstream os(path_);
        write(os);
        os.close();
        if (!os) {
            std::fprintf(stderr, "cannot write --json file '%s'\n",
                         path_.c_str());
            return 1;
        }
        return status;
    }

    /**
     * Emit @p text to stdout and record it for the artifact.
     *
     * Main thread only: rendered_ and std::cout are unsynchronized by
     * design.  Sweep workers render into per-point buffers
     * (core::SweepRunner::mapRendered) and the main thread splices
     * them here in point order, which is what keeps artifacts
     * byte-identical for any --jobs value.
     */
    void
    print(const std::string &text)
    {
        std::cout << text;
        rendered_ += text;
    }

    /** printf-style print(). */
    void
    printf(const char *fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        va_list ap2;
        va_copy(ap2, ap);
        int n = std::vsnprintf(nullptr, 0, fmt, ap);
        va_end(ap);
        std::string buf(n > 0 ? n : 0, '\0');
        if (n > 0)
            std::vsnprintf(buf.data(), buf.size() + 1, fmt, ap2);
        va_end(ap2);
        print(buf);
    }

    /** Start a structured table; rows are appended with addRow(). */
    void
    beginTable(std::string title, std::vector<std::string> columns)
    {
        tables_.push_back(
            Table{std::move(title), std::move(columns), {}});
    }

    /** Append one row (label + one value per column) to the last table. */
    void
    addRow(std::string label, std::vector<double> values)
    {
        tables_.back().rows.push_back(
            Row{std::move(label), std::move(values)});
    }

    /** Record a bandwidth sweep as a structured table. */
    void
    addSweep(const core::BandwidthSweep &sweep)
    {
        std::vector<std::string> columns;
        for (core::Scheme scheme : sweep.schemes)
            columns.push_back(core::schemeName(scheme));
        beginTable(sweep.title, std::move(columns));
        for (std::size_t j = 0; j < sweep.sizes.size(); ++j) {
            std::vector<double> values;
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i)
                values.push_back(sweep.bandwidth[i][j]);
            addRow(std::to_string(sweep.sizes[j]), std::move(values));
        }
    }

    /** Record a latency sweep as a structured table. */
    void
    addLatencySweep(const core::LatencySweep &sweep)
    {
        std::vector<std::string> columns;
        for (core::Scheme scheme : sweep.schemes) {
            columns.push_back(scheme == core::Scheme::Csb
                                  ? core::schemeName(scheme)
                                  : "lock+" + core::schemeName(scheme));
        }
        beginTable(sweep.title, std::move(columns));
        for (std::size_t j = 0; j < sweep.dwords.size(); ++j) {
            std::vector<double> values;
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i)
                values.push_back(sweep.cycles[i][j]);
            addRow(std::to_string(sweep.dwords[j] * 8),
                   std::move(values));
        }
    }

    /**
     * Attach a flat name -> number scorecard to the artifact,
     * emitted as a top-level "scorecard" object (used by the
     * robustness benches; see tools/bench_schema.json).
     */
    void
    setScorecard(std::vector<std::pair<std::string, double>> entries)
    {
        scorecard_ = std::move(entries);
    }

  private:
    struct Row
    {
        std::string label;
        std::vector<double> values;
    };

    struct Table
    {
        std::string title;
        std::vector<std::string> columns;
        std::vector<Row> rows;
    };

    void
    write(std::ostream &os) const
    {
        sim::JsonWriter jw(os, 2);
        jw.beginObject();
        jw.kv("schema", "csbsim-bench-1");
        jw.kv("name", name_);
        jw.key("tables");
        jw.beginArray();
        for (const Table &table : tables_) {
            jw.beginObject();
            jw.kv("title", table.title);
            jw.key("columns");
            jw.beginArray();
            for (const std::string &column : table.columns)
                jw.value(column);
            jw.endArray();
            jw.key("rows");
            jw.beginArray();
            for (const Row &row : table.rows) {
                jw.beginObject();
                jw.kv("label", row.label);
                jw.key("values");
                jw.beginArray();
                for (double v : row.values)
                    jw.value(v);
                jw.endArray();
                jw.endObject();
            }
            jw.endArray();
            jw.endObject();
        }
        jw.endArray();
        if (!scorecard_.empty()) {
            jw.key("scorecard");
            jw.beginObject();
            for (const auto &[key, value] : scorecard_) {
                jw.key(key);
                jw.value(value);
            }
            jw.endObject();
        }
        jw.kv("rendered", rendered_);
        jw.endObject();
        os << "\n";
    }

    std::string name_;
    std::string path_;
    std::string rendered_;
    std::vector<Table> tables_;
    std::vector<std::pair<std::string, double>> scorecard_;
};

/**
 * Run, print and record the full sweep table for one panel.  The grid
 * points execute through @p runner's workers; rendering and the
 * JsonReport stay on the calling thread.
 */
inline void
printBandwidthPanel(JsonReport &report, core::SweepRunner &runner,
                    const std::string &title,
                    const core::BandwidthSetup &setup)
{
    core::BandwidthSweep sweep = core::runBandwidthSweep(
        runner, title, setup, core::schemesForLine(setup.lineBytes),
        core::defaultTransferSizes());
    std::ostringstream os;
    core::printSweep(sweep, os);
    report.print(os.str());
    report.addSweep(sweep);
}

/** Run, print and record one figure-5 latency panel. */
inline void
printLatencyPanel(JsonReport &report, core::SweepRunner &runner,
                  const std::string &title,
                  const core::BandwidthSetup &setup, bool lock_miss)
{
    core::LatencySweep sweep =
        core::runLatencySweep(runner, title, setup, lock_miss);
    std::ostringstream os;
    core::printLatencySweep(sweep, os);
    report.print(os.str());
    report.addLatencySweep(sweep);
}

/** Multiplexed-bus setup shorthand. */
inline core::BandwidthSetup
muxSetup(unsigned ratio, unsigned line_bytes, unsigned turnaround = 0,
         unsigned ack_delay = 0)
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack_delay;
    setup.lineBytes = line_bytes;
    return setup;
}

/** Split-bus setup shorthand. */
inline core::BandwidthSetup
splitSetup(unsigned width, unsigned ratio, unsigned line_bytes,
           unsigned turnaround = 0, unsigned ack_delay = 0)
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Split;
    setup.bus.widthBytes = width;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack_delay;
    setup.lineBytes = line_bytes;
    return setup;
}

} // namespace csb::bench

#endif // CSB_BENCH_COMMON_HH
