#include "probes.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace csbbench {

double
LayerTimes::total() const
{
    double sum = 0;
    for (double v : s)
        sum += v;
    return sum;
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    for (std::size_t i = 0; i < s.size(); ++i)
        s[i] += o.s[i];
    return *this;
}

namespace {

/**
 * Evaluation order of each probe.  Probe i opens band i: bus (-10),
 * uncached buffer and CSB (-5), NI (-3), Core/ReplayCore (0),
 * ContextScheduler (5), then the empty calibration band.  Probe 2
 * shares order -4 with bus::TrafficGenerator, which registers first
 * and so would count as buffers; no workload of this benchmark
 * builds one.
 */
constexpr std::array<int, 7> kProbeOrder = {-11, -9, -4, -2, 1, 6, 7};

/** The gap between probes 5 and 6, where no component ticks. */
constexpr int kEmptyGap = 5;

/** Layer of gap_[i], the gap opened by probe i. */
constexpr std::array<Layer, 7> kGapLayer = {
    Layer::Bus,   Layer::Buffers, Layer::Io,    Layer::Cpu,
    Layer::Sched, Layer::Probe,   Layer::Events};

} // namespace

ProbeSet::Probe::Probe(ProbeSet &set, int slot, int order)
    : csb::sim::Clocked("perfbench.probe" + std::to_string(slot),
                        csb::sim::ClockDomain(1), order),
      set_(set), slot_(slot)
{}

ProbeSet::ProbeSet(csb::sim::Simulator &sim, bool replay_mode)
    : replayMode_(replay_mode)
{
    for (int i = 0; i < kProbes; ++i) {
        probes_.push_back(
            std::make_unique<Probe>(*this, i, kProbeOrder[i]));
        sim.registerClocked(probes_.back().get());
    }
}

void
ProbeSet::hit(int slot)
{
    Clock::time_point now = Clock::now();
    if (started_) {
        gap_[last_] +=
            std::chrono::duration<double>(now - lastAt_).count();
    }
    if (slot == 0)
        ++ticks_;
    started_ = true;
    last_ = slot;
    lastAt_ = now;
}

void
ProbeSet::addTo(LayerTimes &out) const
{
    // Every gap holds one probe's own cost; the empty band holds
    // nothing else, so it calibrates the rest.
    double per_gap =
        ticks_ ? gap_[kEmptyGap] / static_cast<double>(ticks_) : 0;
    double probe_cost = 0;
    for (int i = 0; i < kProbes; ++i) {
        double self = gap_[i];
        // The last tick's closing gap (probe 6 to the next tick)
        // never closes.
        double closed = static_cast<double>(
            i == kProbes - 1 && ticks_ ? ticks_ - 1 : ticks_);
        if (i != kEmptyGap) {
            self -= per_gap * closed;
            Layer layer = kGapLayer[i];
            if (layer == Layer::Cpu && replayMode_)
                layer = Layer::ReplayCore;
            out[layer] += self;
        }
        probe_cost += per_gap * closed;
    }
    out[Layer::Probe] += probe_cost;
}

void
Tally::addDump(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    std::string last_samples_key;
    double last_samples = 0;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string path;
        double value = 0;
        if (!(ls >> path >> value))
            continue;
        // system.cpu1.numCycles -> cpu.numCycles
        if (path.rfind("system.", 0) == 0)
            path.erase(0, 7);
        std::size_t dot = path.find('.');
        std::size_t head = dot == std::string::npos ? path.size() : dot;
        std::size_t digits = head;
        while (digits > 0 &&
               std::isdigit(static_cast<unsigned char>(path[digits - 1])))
            --digits;
        path.erase(digits, head - digits);

        std::size_t sep = path.find("::");
        if (sep == std::string::npos) {
            sums_[path] += value;
            continue;
        }
        std::string stat = path.substr(0, sep);
        std::string part = path.substr(sep + 2);
        if (part == "samples") {
            sums_[stat + "::samples"] += value;
            last_samples_key = stat;
            last_samples = value;
        } else if (part == "mean") {
            if (last_samples_key == stat)
                sums_[stat + "::sum"] += value * last_samples;
        } else if (part != "underflow" && part != "overflow") {
            hists_[stat][std::stod(part)] += value;
        }
    }
}

Tally &
Tally::operator+=(const Tally &other)
{
    for (const auto &[key, v] : other.sums_)
        sums_[key] += v;
    for (const auto &[key, hist] : other.hists_) {
        for (const auto &[value, count] : hist)
            hists_[key][value] += count;
    }
    for (const auto &[key, width] : other.widths_)
        widths_.emplace(key, width);
    return *this;
}

void
Tally::addBucketWidths(const std::string &json)
{
    for (const auto &[key, hist] : hists_) {
        if (widths_.count(key))
            continue;
        std::string leaf(1, '"');
        leaf.append(key, key.rfind('.') + 1);
        leaf.push_back('"');
        std::size_t at = json.find(leaf);
        if (at != std::string::npos)
            at = json.find("\"bucket_size\"", at);
        if (at != std::string::npos)
            at = json.find(':', at);
        if (at != std::string::npos)
            widths_[key] = std::strtod(json.c_str() + at + 1, nullptr);
    }
}

double
Tally::get(const std::string &key) const
{
    auto it = sums_.find(key);
    return it == sums_.end() ? 0 : it->second;
}

double
Tally::ratio(const std::string &num, const std::string &den) const
{
    double d = get(den);
    return d == 0 ? 0 : get(num) / d;
}

double
Tally::percentile(const std::string &key, double p) const
{
    auto it = hists_.find(key);
    if (it == hists_.end())
        return 0;
    double total = 0;
    for (const auto &[value, count] : it->second)
        total += count;
    auto w = widths_.find(key);
    double width = w == widths_.end() ? 0 : w->second;
    double rank = std::max(1.0, std::ceil(p * total));
    double seen = 0;
    for (const auto &[value, count] : it->second) {
        seen += count;
        if (seen >= rank)
            return value + width;
    }
    return it->second.rbegin()->first + width;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

} // namespace csbbench
