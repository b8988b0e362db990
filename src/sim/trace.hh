/**
 * @file
 * Debug tracing with named channels, gem5 DPRINTF style.
 *
 * A channel is an interned handle: trace::channel("bus") returns the
 * same Channel for the life of the process.  A component looks its
 * channel up once, at namespace scope, and traces through the
 * CSB_TRACE macro:
 *
 *     namespace { const sim::trace::Channel &busTrace =
 *                     sim::trace::channel("bus"); }
 *     ...
 *     CSB_TRACE(busTrace, "write start cycle=", c, " ", txn.toString());
 *
 * CSB_TRACE tests the channel before it touches its arguments, so a
 * disabled channel costs one relaxed atomic load and evaluates
 * nothing (above, txn.toString() is never called).
 *
 * Channels are disabled by default; enable programmatically with
 * trace::enable("csb") or from the environment, read when the first
 * channel is interned:
 *
 *     CSBSIM_TRACE=csb,bus ./build/examples/quickstart
 *     CSBSIM_TRACE=all     ./build/tests/cpu_test_core_basic
 *
 * Each line is prefixed with the current tick and the channel name:
 *
 *     [    1234] csb: store pid=1 addr=0x22000000 counter=3
 *
 * The tick source is registered once by the owning Simulator (or any
 * clock authority); without one, ticks print as '-'.
 */

#ifndef CSB_SIM_TRACE_HH
#define CSB_SIM_TRACE_HH

#include <atomic>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "types.hh"

namespace csb::sim::trace {

namespace detail {
struct Registry;
}

/**
 * One named trace channel.  Owned by the process-wide registry and
 * never destroyed, so references to it stay valid; enable() and
 * disable() flip its flag from any thread.
 */
class Channel
{
  public:
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** @return true when the channel is on (one relaxed load). */
    bool
    enabled() const
    {
        return on_.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

  private:
    friend struct detail::Registry;

    explicit Channel(std::string name) : name_(std::move(name)) {}

    const std::string name_;
    std::atomic<bool> on_{false};
    bool listed_ = false; ///< named by enable(); guarded by the registry
};

/**
 * @return the interned channel called @p name, created (and set from
 * CSBSIM_TRACE and earlier enable() calls) on first use.
 */
Channel &channel(std::string_view name);

/** Enable a channel ("all" enables everything). */
void enable(const std::string &name);

/** Disable a channel ("all" clears everything). */
void disable(const std::string &name);

/** Redirect trace output (default: std::cerr).  Not owned. */
void setOutput(std::ostream *os);

/**
 * Install the tick source used for line prefixes.  The source is
 * thread-local: every Simulator registers itself on the thread it is
 * constructed on, so concurrent sweep workers each stamp lines with
 * their own simulator's ticks.
 */
void setTickSource(std::function<Tick()> source);

namespace detail {

void emit(const Channel &channel, const std::string &message);

/** Stream @p args into one line on @p channel (enabled already). */
template <typename... Args>
void
print(const Channel &channel, Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    emit(channel, os.str());
}

} // namespace detail
} // namespace csb::sim::trace

/**
 * Log the streamed @p ... to @p channel (a trace::Channel, evaluated
 * once).  The other arguments are evaluated only when the channel is
 * enabled.
 */
#define CSB_TRACE(channel, ...)                                         \
    do {                                                                \
        const ::csb::sim::trace::Channel &csbTraceChannel_ = (channel); \
        if (csbTraceChannel_.enabled()) [[unlikely]]                    \
            ::csb::sim::trace::detail::print(csbTraceChannel_,          \
                                             __VA_ARGS__);              \
    } while (false)

#endif // CSB_SIM_TRACE_HH
