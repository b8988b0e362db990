#include "workloads.hh"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "core/workloads.hh"
#include "cpu/context_scheduler.hh"
#include "cpu/reference_executor.hh"
#include "litmus/generator.hh"
#include "litmus/harness.hh"
#include "litmus/oracle.hh"
#include "litmus/testcase.hh"
#include "sim/trace_recorder.hh"

namespace csbbench {

using csb::Addr;
using csb::Tick;
using csb::core::BandwidthSetup;
using csb::core::Scheme;
using csb::core::System;
using csb::core::SystemConfig;

void
UnitResult::merge(UnitResult &&o)
{
    attempted += o.attempted;
    failed += o.failed;
    items += o.items;
    ticks += o.ticks;
    insts += o.insts;
    busTxns += o.busTxns;
    events += o.events;
    busyS += o.busyS;
    itemMs.insert(itemMs.end(), o.itemMs.begin(), o.itemMs.end());
    untimedS += o.untimedS;
    host += o.host;
    for (std::string &s : o.statsJson)
        statsJson.push_back(std::move(s));
    tally += o.tally;
    for (const auto &[k, v] : o.figures)
        figures[k] += v;
    for (std::string &e : o.errors) {
        if (errors.size() < 5)
            errors.push_back(std::move(e));
    }
}

void
UnitResult::fail(const std::string &what)
{
    ++failed;
    if (errors.size() < 5)
        errors.push_back(what);
}

namespace {

/** The paper's reference machine: 8 B multiplexed bus, ratio 6. */
BandwidthSetup
muxSetup(unsigned ratio, unsigned line_bytes, unsigned turnaround = 0,
         unsigned ack_delay = 0)
{
    BandwidthSetup setup;
    setup.bus.kind = csb::bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack_delay;
    setup.lineBytes = line_bytes;
    return setup;
}

BandwidthSetup
splitSetup(unsigned width, unsigned turnaround = 0, unsigned ack_delay = 0)
{
    BandwidthSetup setup = muxSetup(6, 64, turnaround, ack_delay);
    setup.bus.kind = csb::bus::BusKind::Split;
    setup.bus.widthBytes = width;
    return setup;
}

/**
 * Build a System for @p cfg, attach probes in Traced mode, run
 * @p body on it, and account for it in @p out.  System construction
 * and teardown count as Layer::Build; stats capture is excluded from
 * the unit's host time.
 */
void
runSystem(const SystemConfig &cfg, Mode mode, UnitResult &out,
          const std::function<void(System &, UnitResult &)> &body)
{
    Clock::time_point start = Clock::now();
    auto system = std::make_unique<System>(cfg);
    double build = secondsSince(start);
    std::unique_ptr<ProbeSet> probes;
    if (mode == Mode::Traced) {
        probes = std::make_unique<ProbeSet>(system->simulator(),
                                            cfg.replayMode);
    }

    body(*system, out);

    csb::sim::Simulator &sim = system->simulator();
    out.ticks += static_cast<double>(sim.curTick());
    out.events += static_cast<double>(sim.eventQueue().numProcessed());
    if (!cfg.replayMode) {
        for (unsigned c = 0; c < system->numCores(); ++c)
            out.insts += system->core(c).instsRetired.value();
    }
    out.busTxns += system->bus().numWrites.value() +
                   system->bus().numReads.value();
    if (sim.tickLimitHits())
        out.fail("simulation hit its tick limit");

    Clock::time_point capture = Clock::now();
    if (mode != Mode::Plain) {
        std::ostringstream json;
        system->dumpStatsJson(json);
        out.statsJson.push_back(json.str());
    }
    if (mode == Mode::Reference) {
        out.tally.addDump(fullDump(*system));
        out.tally.addBucketWidths(out.statsJson.back());
        out.tally.add("sim.ticks", static_cast<double>(sim.curTick()));
        out.tally.add("sim.busCycles",
                      static_cast<double>(sim.curTick()) /
                          static_cast<double>(cfg.bus.ratio));
        out.tally.add("sim.ffTicks",
                      static_cast<double>(sim.fastForwardedTicks()));
        out.tally.add("sim.tickLimitHits",
                      static_cast<double>(sim.tickLimitHits()));
    }
    double capture_s = secondsSince(capture);

    if (probes)
        probes->addTo(out.host);
    Clock::time_point teardown = Clock::now();
    system.reset();
    probes.reset();
    build += secondsSince(teardown);
    out.host[Layer::Build] += build;
    out.busyS += secondsSince(start) - capture_s;
}

/** Time @p fn into layer @p layer of @p out. */
template <typename Fn>
auto
timed(UnitResult &out, Layer layer, Fn &&fn)
{
    Clock::time_point start = Clock::now();
    auto result = fn();
    out.host[layer] += secondsSince(start);
    return result;
}

// --------------------------------------------------------------------
// paper_grid: every data point of figures 3, 4 and 5.

class PaperGrid : public Workload
{
  public:
    PaperGrid() : runner_(kWorkers) {}

    static constexpr unsigned kWorkers = 2;

    unsigned workers() const override { return kWorkers; }

    const char *itemLatencyName() const override { return "core.point_ms"; }

    void
    setup(std::size_t) override
    {
        points_.clear();
        csb::core::SweepRunner serial(1);
        // Figures 3 and 4: scheme x transfer size per panel.
        struct Panel
        {
            BandwidthSetup setup;
            bool headline; ///< fig 3(e): 64 B lines, the reference bus
        };
        // In figure order.  Fig 3(b) and fig 3(d) are the same panel
        // (32 B lines, ratio 6); the paper plots it twice, so the grid
        // runs it twice.
        const Panel panels[] = {
            {muxSetup(2, 32), false},       {muxSetup(6, 32), false},
            {muxSetup(10, 32), false},      {muxSetup(6, 32), false},
            {muxSetup(6, 64), true},        {muxSetup(6, 128), false},
            {muxSetup(6, 64, 1, 0), false}, {muxSetup(6, 64, 0, 4), false},
            {muxSetup(6, 64, 0, 8), false}, {splitSetup(16), false},
            {splitSetup(32), false},        {splitSetup(16, 1, 0), false},
            {splitSetup(16, 0, 4), false},  {splitSetup(16, 0, 8), false},
        };
        for (const Panel &panel : panels) {
            csb::core::BandwidthSweep sweep = csb::core::runBandwidthSweep(
                serial, "", panel.setup,
                csb::core::schemesForLine(panel.setup.lineBytes),
                csb::core::defaultTransferSizes());
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
                for (std::size_t j = 0; j < sweep.sizes.size(); ++j) {
                    points_.push_back(
                        {panel.setup, sweep.schemes[i], sweep.sizes[j],
                         Kind::Bandwidth, sweep.bandwidth[i][j],
                         panel.headline && sweep.schemes[i] == Scheme::Csb &&
                             sweep.sizes[j] == 1024});
                }
            }
        }
        // Figure 5: lock hit and lock miss.
        for (bool miss : {false, true}) {
            csb::core::LatencySweep sweep = csb::core::runLatencySweep(
                serial, "", muxSetup(6, 64), miss);
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
                for (std::size_t j = 0; j < sweep.dwords.size(); ++j) {
                    Kind kind = sweep.schemes[i] == Scheme::Csb
                                    ? Kind::CsbSequence
                                    : miss ? Kind::LockMiss
                                           : Kind::LockHit;
                    points_.push_back({muxSetup(6, 64), sweep.schemes[i],
                                       sweep.dwords[j], kind,
                                       sweep.cycles[i][j], false});
                }
            }
        }
    }

    std::size_t cycleLength() const override { return 1; }

    UnitResult
    runUnit(std::size_t, Mode mode) override
    {
        std::vector<UnitResult> parts = runner_.mapIndex(
            points_.size(),
            [&](std::size_t i) { return runPoint(points_[i], mode); });
        UnitResult out;
        for (UnitResult &part : parts)
            out.merge(std::move(part));
        return out;
    }

    std::map<std::string, double>
    simFigures(const std::map<std::string, double> &f) const override
    {
        return {{"csb_1k_bytes_per_bus_cycle",
                 f.count("csb_1k") ? f.at("csb_1k") : 0.0}};
    }

  private:
    enum class Kind { Bandwidth, LockHit, LockMiss, CsbSequence };

    struct Point
    {
        BandwidthSetup setup;
        Scheme scheme;
        unsigned size; ///< bytes (bandwidth) or doublewords (figure 5)
        Kind kind;
        double expected;
        bool headline;
    };

    static UnitResult
    runPoint(const Point &p, Mode mode)
    {
        UnitResult out;
        double value = 0;
        SystemConfig cfg = csb::core::bandwidthConfig(p.setup, p.scheme);
        runSystem(cfg, mode, out, [&](System &system, UnitResult &o) {
            constexpr Addr lock_addr = 0x4000;
            if (p.kind == Kind::LockHit)
                system.caches().touch(lock_addr);
            csb::isa::Program program = timed(o, Layer::Assemble, [&] {
                Addr io_base = p.scheme == Scheme::NoCombine
                                   ? System::ioUncachedBase
                                   : System::ioAccelBase;
                switch (p.kind) {
                  case Kind::Bandwidth:
                    return p.scheme == Scheme::Csb
                               ? csb::core::makeCsbStoreKernel(
                                     System::ioCsbBase, p.size,
                                     p.setup.lineBytes)
                               : csb::core::makeStoreKernel(io_base,
                                                            p.size);
                  case Kind::CsbSequence:
                    return csb::core::makeCsbSequenceKernel(
                        System::ioCsbBase, p.size);
                  default:
                    return csb::core::makeLockedStoreKernel(
                        lock_addr, io_base, p.size);
                }
            });
            system.run(program);
            if (p.kind == Kind::Bandwidth) {
                value = static_cast<double>(p.size) /
                        static_cast<double>(system.ioWriteBusCycles());
            } else {
                value = static_cast<double>(system.core().markTime(1) -
                                            system.core().markTime(0));
            }
        });
        out.items = 1;
        out.attempted = 1;
        out.itemMs.push_back(out.busyS * 1e3);
        if (value != p.expected) {
            std::ostringstream os;
            os << "grid point " << csb::core::schemeName(p.scheme) << " size "
               << p.size << ": " << value << ", library runner "
               << p.expected;
            out.fail(os.str());
        }
        if (p.headline)
            out.figures["csb_1k"] = value;
        return out;
    }

    csb::core::SweepRunner runner_;
    std::vector<Point> points_;
};

// --------------------------------------------------------------------
// app_messages: long single-core NI message runs, CSB PIO vs lock+PIO.

class AppMessages : public Workload
{
  public:
    /** Size vectors per cycle; each runs once per send path. */
    static constexpr unsigned kBatches = 4;
    static constexpr unsigned kMessages = 600;

    explicit AppMessages(std::uint64_t seed) : seed_(seed) {}

    void
    setup(std::size_t) override
    {
        sizes_.clear();
        programs_.clear();
        for (unsigned b = 0; b < kBatches; ++b) {
            sizes_.push_back(csb::core::drawSizes(
                csb::core::MessageSizeDistribution::scientific(
                    seed_ * kBatches + b),
                kMessages));
            for (bool use_csb : {true, false}) {
                csb::core::MessageProgramSpec spec;
                spec.useCsb = use_csb;
                spec.lineBytes = setup_.lineBytes;
                programs_.push_back(
                    csb::core::makeMessageProgram(spec, sizes_.back()));
            }
        }
    }

    std::size_t cycleLength() const override { return programs_.size(); }

    UnitResult
    runUnit(std::size_t index, Mode mode) override
    {
        bool use_csb = index % 2 == 0;
        const std::vector<unsigned> &sizes = sizes_[index / 2];
        SystemConfig cfg;
        cfg.lineBytes = setup_.lineBytes;
        cfg.bus = setup_.bus;
        cfg.enableCsb = use_csb;
        cfg.ubuf.combineBytes = 0;
        cfg.enableNi = true;
        cfg.normalize();

        UnitResult out;
        double cycles = 0;
        runSystem(cfg, mode, out, [&](System &system, UnitResult &o) {
            system.caches().touch(csb::core::MessageProgramSpec().lockAddr);
            system.run(programs_[index]);
            cycles = static_cast<double>(system.core().markTime(1) -
                                         system.core().markTime(0));
            const auto &delivered = system.ni()->delivered();
            std::set<std::uint64_t> seqs;
            for (const auto &msg : delivered)
                seqs.insert(msg.seq);
            std::vector<unsigned> got;
            for (const auto &msg : delivered)
                got.push_back(static_cast<unsigned>(msg.payload.size()));
            o.attempted += sizes.size();
            if (delivered.size() != sizes.size() ||
                seqs.size() != delivered.size() || got != sizes) {
                std::ostringstream os;
                os << (use_csb ? "CSB" : "lock") << " run " << index
                   << ": " << delivered.size() << " delivered ("
                   << seqs.size() << " distinct) of " << sizes.size()
                   << " sent, sizes "
                   << (got == sizes ? "match" : "differ");
                o.fail(os.str());
            }
        });
        out.items = sizes.size();
        std::string path = use_csb ? "csb" : "lock";
        out.figures[path + "_cycles"] += cycles;
        out.figures[path + "_msgs"] += static_cast<double>(sizes.size());
        return out;
    }

    std::map<std::string, double>
    simFigures(const std::map<std::string, double> &f) const override
    {
        auto per = [&](const std::string &path) {
            double msgs = f.count(path + "_msgs") ? f.at(path + "_msgs") : 0;
            return msgs ? f.at(path + "_cycles") / msgs : 0.0;
        };
        return {{"csb_cycles_per_msg", per("csb")},
                {"lock_cycles_per_msg", per("lock")}};
    }

  private:
    std::uint64_t seed_;
    BandwidthSetup setup_ = muxSetup(6, 64);
    std::vector<std::vector<unsigned>> sizes_;
    std::vector<csb::isa::Program> programs_;
};

// --------------------------------------------------------------------
// trace_replay: replay recorded store streams on coreless systems.

class TraceReplay : public Workload
{
  public:
    static constexpr unsigned kTransferBytes = 32 * 1024;
    static constexpr unsigned kAluPerStore = 32;

    /** One step per recording. */
    std::size_t setupSteps() const override { return traces_.size(); }

    void
    setup(std::size_t step) override
    {
        const Scheme schemes[] = {Scheme::NoCombine, Scheme::Combine64,
                                  Scheme::Csb};
        csb::sim::TraceRecorder recorder(1, setup_.lineBytes);
        csb::core::TracedRun live = csb::core::recordStoreBandwidth(
            setup_, schemes[step], kTransferBytes, &recorder, kAluPerStore);
        std::ostringstream csbt;
        recorder.writeTo(csbt);
        traces_[step] = {schemes[step], live.endTick, live.memStatsJson,
                         csbt.str(), recorder.records().size()};
    }

    std::size_t cycleLength() const override { return traces_.size(); }

    UnitResult
    runUnit(std::size_t index, Mode mode) override
    {
        const Recorded &rec = traces_[index];
        SystemConfig cfg = csb::core::bandwidthConfig(setup_, rec.scheme);
        cfg.replayMode = true;
        UnitResult out;
        runSystem(cfg, mode, out, [&](System &system, UnitResult &o) {
            csb::sim::MemTrace trace = timed(o, Layer::TraceLoad, [&] {
                std::istringstream is(rec.csbt);
                return csb::sim::MemTrace::readFrom(is);
            });
            Tick end = system.replay(trace);
            std::ostringstream stats;
            system.dumpMemStatsJson(stats);
            o.attempted += 1;
            if (end != rec.endTick || stats.str() != rec.memStats) {
                std::ostringstream os;
                os << csb::core::schemeName(rec.scheme)
                   << " replay: end tick " << end << " (live "
                   << rec.endTick << "), memory stats "
                   << (stats.str() == rec.memStats ? "identical"
                                                   : "differ");
                o.fail(os.str());
            }
        });
        out.items = rec.records;
        // The replay runs no instructions.  insts_per_s must not be 0 on
        // any workload, so it counts the instructions the records stand
        // for: each store and the ALU ops the kernel pads it with.
        out.insts = static_cast<double>(rec.records) * (1 + kAluPerStore);
        return out;
    }

  private:
    struct Recorded
    {
        Scheme scheme = Scheme::NoCombine;
        Tick endTick = 0;
        std::string memStats;
        std::string csbt;
        std::size_t records = 0;
    };

    BandwidthSetup setup_ = muxSetup(6, 64);
    std::vector<Recorded> traces_ = std::vector<Recorded>(3);
};

// --------------------------------------------------------------------
// litmus_sweep: the full-matrix differential check over a seed range.

/**
 * The SystemConfig litmus::runCase builds for @p spec (the library
 * keeps its own copy private).  A change there must be mirrored here,
 * or the traced split and the simulated counts describe a different
 * system than the one runCase checks.
 */
SystemConfig
litmusConfig(const csb::litmus::RunSpec &spec, unsigned contexts)
{
    using csb::litmus::CtxMode;
    using csb::litmus::Scheme;
    SystemConfig cfg;
    cfg.numCores = spec.mode == CtxMode::Smp ? contexts : 1;
    cfg.enableCsb = true;
    switch (spec.scheme) {
      case Scheme::Pio:
        cfg.ubuf.combineBytes = 0;
        break;
      case Scheme::Dma:
        cfg.ubuf.combineBytes = cfg.lineBytes;
        cfg.ubuf.policy = csb::mem::CombinePolicy::Block;
        cfg.routeMissesOverBus = true;
        break;
      case Scheme::Csb:
        cfg.ubuf.combineBytes = cfg.lineBytes;
        cfg.ubuf.policy = csb::mem::CombinePolicy::SequentialOnly;
        cfg.csb.partialFlush = true;
        cfg.csb.numLineBuffers = 2;
        break;
    }
    if (spec.faults) {
        cfg.faults.seed = spec.faultSeed;
        cfg.faults.busWriteNackRate = 0.01;
        cfg.faults.busReadNackRate = 0.01;
    }
    if (!spec.schedule.empty()) {
        cfg.faults.seed = spec.faultSeed;
        cfg.faults.schedule = csb::sim::parseFaultSchedule(spec.schedule);
    }
    if (spec.coherent)
        cfg.coherence.kind = csb::mem::CoherenceKind::Mesi;
    if (spec.translatedCore)
        cfg.cpu.translate = csb::cpu::TranslateMode::CoreFastForward;
    if (spec.smallCaches) {
        cfg.l1 = csb::mem::CacheParams{128, 1, cfg.lineBytes, 2};
        cfg.l2 = csb::mem::CacheParams{128, 1, cfg.lineBytes, 8};
    }
    cfg.watchdogTicks = 200'000;
    cfg.normalize();
    return cfg;
}

class LitmusSweep : public Workload
{
  public:
    /**
     * Litmus seeds per cycle, a third each with 1, 2 and 4 contexts;
     * each is checked against every spec of its full matrix.  The
     * context count sets most of a seed's cost, so stratifying by it
     * keeps the cost of a cycle nearly the same for every workload
     * seed.
     */
    static constexpr unsigned kSeedsPerContextCount = 30;
    static constexpr Tick kMaxTicks = 5'000'000;

    explicit LitmusSweep(std::uint64_t seed) : seed_(seed) {}

    void
    setup(std::size_t) override
    {
        // counts_ survives repeated set-ups: the cases are the same.
        cases_.clear();
        std::map<unsigned, unsigned> quota = {
            {1, kSeedsPerContextCount},
            {2, kSeedsPerContextCount},
            {4, kSeedsPerContextCount}};
        for (std::uint64_t s = seed_ * 1'000'000 + 1;
             cases_.size() < 3 * kSeedsPerContextCount; ++s) {
            unsigned &left = quota[csb::litmus::contextsForSeed(s)];
            if (left == 0)
                continue;
            --left;
            Case c{s, csb::litmus::generate(s),
                   csb::litmus::specsForSeed(s, /*full_matrix=*/true, 0)};
            if (counts_.size() == cases_.size())
                counts_.emplace_back(c.specs.size());
            cases_.push_back(std::move(c));
        }
    }

    std::size_t cycleLength() const override { return cases_.size(); }

    const char *itemLatencyName() const override { return "litmus.spec_ms"; }

    std::map<std::string, double>
    simFigures(const std::map<std::string, double> &f) const override
    {
        return f;
    }

    UnitResult
    runUnit(std::size_t index, Mode mode) override
    {
        const Case &c = cases_[index];
        UnitResult out;
        if (mode == Mode::Traced) {
            // generate() is set-up work; time it again for the split.
            timed(out, Layer::Generate, [&] {
                return csb::litmus::generate(c.seed).contexts.size();
            });
            out.busyS += out.host[Layer::Generate];
        }
        for (std::size_t k = 0; k < c.specs.size(); ++k) {
            const csb::litmus::RunSpec &spec = c.specs[k];
            out.items += 1;
            if (mode != Mode::Plain) {
                replica(c, spec, mode, out);
                continue;
            }
            Clock::time_point start = Clock::now();
            csb::litmus::RunResult r = csb::litmus::runCase(c.tc, spec);
            double s = secondsSince(start);
            out.busyS += s;
            out.itemMs.push_back(s * 1e3);
            out.attempted += 1;
            out.figures["specs_run"] += 1;
            out.figures["discrepancies"] +=
                static_cast<double>(r.discrepancies.size());
            if (!r.passed()) {
                out.fail("seed " + std::to_string(c.seed) + " " +
                         spec.name() + ": " + r.discrepancies.front().what);
            }
            // runCase keeps its System private; its simulated work is
            // the replica's, learnt once per spec outside the timed
            // loop.  Both record every data reference with its tick, and
            // the streams must be identical, so the counts cannot
            // silently describe another system than the one runCase ran.
            SimCounts &counts = counts_[index][k];
            if (!counts.known) {
                Clock::time_point learn = Clock::now();
                unsigned cpus = spec.mode == csb::litmus::CtxMode::Smp
                                    ? unsigned(c.tc.contexts.size())
                                    : 1u;
                unsigned line = SystemConfig().lineBytes;
                csb::sim::TraceRecorder live(cpus, line), copy(cpus, line);
                csb::litmus::runCase(c.tc, spec, &live);
                UnitResult once;
                replica(c, spec, Mode::Plain, once, &copy);
                counts = {true, once.ticks, once.insts, once.busTxns,
                          once.events};
                out.untimedS += secondsSince(learn);
                if (once.failed)
                    out.fail(once.errors.front());
                if (live.records() != copy.records()) {
                    out.fail("seed " + std::to_string(c.seed) + " " +
                             spec.name() +
                             ": replica's data references differ from "
                             "runCase's (" +
                             std::to_string(copy.records().size()) +
                             " vs " + std::to_string(live.records().size()) +
                             " records)");
                }
            }
            out.ticks += counts.ticks;
            out.insts += counts.insts;
            out.busTxns += counts.busTxns;
            out.events += counts.events;
        }
        return out;
    }

  private:
    struct Case
    {
        std::uint64_t seed;
        csb::litmus::TestCase tc;
        std::vector<csb::litmus::RunSpec> specs;
    };

    struct SimCounts
    {
        bool known = false;
        double ticks = 0, insts = 0, busTxns = 0, events = 0;
    };

    /**
     * What runCase does for one spec -- reference run, lowering,
     * System build and cycle-model run -- built from the public API so
     * probes can be attached.  The verdict comparison itself is left
     * to runCase.
     */
    static void
    replica(const Case &c, const csb::litmus::RunSpec &spec, Mode mode,
            UnitResult &out, csb::sim::TraceRecorder *recorder = nullptr)
    {
        using csb::litmus::CtxMode;
        std::size_t contexts = c.tc.contexts.size();
        SystemConfig cfg = litmusConfig(spec, unsigned(contexts));
        runSystem(cfg, mode, out, [&](System &system, UnitResult &o) {
            if (recorder)
                system.attachTraceRecorder(recorder);
            auto programs = timed(o, Layer::Assemble, [&] {
                std::vector<csb::isa::Program> p;
                for (std::size_t i = 0; i < contexts; ++i)
                    p.push_back(csb::litmus::lowerContext(c.tc, i));
                return p;
            });
            timed(o, Layer::Reference, [&] {
                csb::cpu::RefCsbModel ref_csb;
                ref_csb.lineBytes = cfg.csb.lineBytes;
                ref_csb.checkAddress = cfg.csb.checkAddress;
                ref_csb.partialFlush = cfg.csb.partialFlush;
                csb::cpu::ReferenceExecutor ref(ref_csb);
                ref.setTranslate(spec.translatedRef);
                ref.pageTable().setAttr(System::ioUncachedBase,
                                        System::ioRegionSize,
                                        csb::mem::PageAttr::Uncached);
                ref.pageTable().setAttr(
                    System::ioAccelBase, System::ioRegionSize,
                    csb::mem::PageAttr::UncachedAccelerated);
                ref.pageTable().setAttr(
                    System::ioCsbBase, System::ioRegionSize,
                    csb::mem::PageAttr::UncachedCombining);
                for (std::size_t i = 0; i < contexts; ++i) {
                    ref.addContext(&programs[i], c.tc.contexts[i].pid,
                                   spec.mode == CtxMode::Smp ? unsigned(i)
                                                             : 0u);
                }
                ref.run();
                return 0;
            });
            bool done = false;
            if (spec.mode == CtxMode::Smp) {
                for (std::size_t i = 0; i < contexts; ++i) {
                    system.core(unsigned(i))
                        .loadProgram(&programs[i], c.tc.contexts[i].pid);
                }
                auto finished = [&] {
                    for (unsigned i = 0; i < system.numCores(); ++i) {
                        if (!system.core(i).halted())
                            return false;
                    }
                    return system.quiescent();
                };
                system.simulator().run(finished, kMaxTicks);
                done = finished();
            } else {
                csb::cpu::ContextScheduler sched(
                    system.simulator(), system.core(), spec.quantum);
                for (std::size_t i = 0; i < contexts; ++i)
                    sched.addProcess(&programs[i], c.tc.contexts[i].pid);
                sched.start();
                auto finished = [&] {
                    return sched.allFinished() && system.quiescent();
                };
                system.simulator().run(finished, kMaxTicks);
                done = finished();
            }
            if (!done) {
                o.fail("seed " + std::to_string(c.seed) + " " +
                       spec.name() + ": replica did not finish");
            }
        });
    }

    std::uint64_t seed_;
    std::vector<Case> cases_;
    std::vector<std::vector<SimCounts>> counts_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "app_messages", "trace_replay", "litmus_sweep"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper_grid")
        return std::make_unique<PaperGrid>();
    if (name == "app_messages")
        return std::make_unique<AppMessages>(seed);
    if (name == "trace_replay")
        return std::make_unique<TraceReplay>();
    if (name == "litmus_sweep")
        return std::make_unique<LitmusSweep>(seed);
    return nullptr;
}

} // namespace csbbench
