#include "trace.hh"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>

namespace csb::sim::trace {

namespace detail {

/**
 * Channel configuration is process-wide and mutex-guarded so that
 * concurrent Simulator instances (core::SweepRunner workers) can
 * trace safely.  The mutex covers configuration and output only: a
 * trace statement reads its channel's own atomic flag.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Channel>, std::less<>> channels;
    bool all = false;
    bool envLoaded = false;
    std::ostream *out = &std::cerr;

    /** Caller holds mutex. */
    Channel &
    intern(std::string_view name)
    {
        auto it = channels.find(name);
        if (it == channels.end()) {
            it = channels
                     .emplace(name, std::unique_ptr<Channel>(
                                        new Channel(std::string(name))))
                     .first;
            it->second->on_.store(all, std::memory_order_relaxed);
        }
        return *it->second;
    }

    /** Turn channel @p name (or "all") on or off.  Caller holds mutex. */
    void
    set(const std::string &name, bool on)
    {
        if (name == "all") {
            all = on;
            for (auto &[_, ch] : channels) {
                if (!on)
                    ch->listed_ = false;
                ch->on_.store(on || ch->listed_,
                              std::memory_order_relaxed);
            }
            return;
        }
        Channel &ch = intern(name);
        ch.listed_ = on;
        ch.on_.store(all || on, std::memory_order_relaxed);
    }

    /** Apply CSBSIM_TRACE once, unless enable() came first. */
    void
    loadEnvLocked()
    {
        if (envLoaded)
            return;
        envLoaded = true;
        const char *env = std::getenv("CSBSIM_TRACE");
        std::string_view spec(env != nullptr ? env : "");
        while (!spec.empty()) {
            std::size_t comma = spec.find(',');
            std::string name(spec.substr(0, comma));
            if (!name.empty())
                set(name, true);
            if (comma == std::string_view::npos)
                break;
            spec.remove_prefix(comma + 1);
        }
    }
};

namespace {

/**
 * Never destroyed: components hold Channel references at namespace
 * scope, and a trace statement may run during static destruction.
 */
Registry &
registry()
{
    static Registry *instance = new Registry;
    return *instance;
}

/**
 * The tick source is per-thread: each sweep worker runs its own
 * Simulator, and its trace lines must show that simulator's ticks.
 */
thread_local std::function<Tick()> tickSource;

} // namespace

void
emit(const Channel &channel, const std::string &message)
{
    // Format outside the lock; the tick source is thread-local.
    std::ostringstream line;
    line << "[";
    if (tickSource) {
        line << std::setw(9) << tickSource();
    } else {
        line << std::setw(9) << "-";
    }
    line << "] " << channel.name() << ": " << message << "\n";
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    *r.out << line.str();
}

} // namespace detail

Channel &
channel(std::string_view name)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.loadEnvLocked();
    return r.intern(name);
}

void
enable(const std::string &name)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    // explicit control overrides the environment
    r.envLoaded = true;
    r.set(name, true);
}

void
disable(const std::string &name)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.set(name, false);
}

void
setOutput(std::ostream *os)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.out = os != nullptr ? os : &std::cerr;
}

void
setTickSource(std::function<Tick()> source)
{
    detail::tickSource = std::move(source);
}

} // namespace csb::sim::trace
