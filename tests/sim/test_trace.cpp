/**
 * @file
 * Tests for the debug trace channels.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/trace.hh"

namespace {

namespace trace = csb::sim::trace;

class TraceFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::disable("all");
        trace::setOutput(&out);
        trace::setTickSource([this] { return tick; });
    }

    void
    TearDown() override
    {
        trace::disable("all");
        trace::setOutput(nullptr);
        trace::setTickSource(nullptr);
    }

    std::ostringstream out;
    csb::Tick tick = 0;
};

TEST_F(TraceFixture, DisabledChannelIsSilent)
{
    const trace::Channel &quiet = trace::channel("quiet");
    CSB_TRACE(quiet, "should not appear");
    EXPECT_TRUE(out.str().empty());
    EXPECT_FALSE(quiet.enabled());
}

TEST_F(TraceFixture, EnabledChannelEmits)
{
    trace::enable("loud");
    tick = 42;
    CSB_TRACE(trace::channel("loud"), "value=", 7);
    EXPECT_NE(out.str().find("loud: value=7"), std::string::npos);
    EXPECT_NE(out.str().find("42"), std::string::npos);
}

TEST_F(TraceFixture, OtherChannelsStaySilent)
{
    trace::enable("a");
    CSB_TRACE(trace::channel("b"), "nope");
    EXPECT_TRUE(out.str().empty());
}

TEST_F(TraceFixture, AllEnablesEverything)
{
    trace::enable("all");
    CSB_TRACE(trace::channel("anything"), "yes");
    EXPECT_NE(out.str().find("anything: yes"), std::string::npos);
}

TEST_F(TraceFixture, DisableStopsEmission)
{
    const trace::Channel &ch = trace::channel("ch");
    trace::enable("ch");
    CSB_TRACE(ch, "one");
    trace::disable("ch");
    CSB_TRACE(ch, "two");
    EXPECT_NE(out.str().find("one"), std::string::npos);
    EXPECT_EQ(out.str().find("two"), std::string::npos);
}

TEST_F(TraceFixture, StreamedArgumentsFormat)
{
    trace::enable("fmt");
    CSB_TRACE(trace::channel("fmt"), "addr=0x", std::hex, 255, std::dec,
              " n=", 10);
    EXPECT_NE(out.str().find("addr=0xff n=10"), std::string::npos);
}

/** The exact line layout: right-aligned tick, channel, message. */
TEST_F(TraceFixture, LineFormatIsExact)
{
    trace::enable("exact");
    tick = 1234;
    CSB_TRACE(trace::channel("exact"), "store pid=", 1, " counter=", 3);
    trace::setTickSource(nullptr);
    CSB_TRACE(trace::channel("exact"), "no clock");
    EXPECT_EQ(out.str(), "[     1234] exact: store pid=1 counter=3\n"
                         "[        -] exact: no clock\n");
}

/** The pay-for-use promise: a disabled channel evaluates nothing. */
TEST_F(TraceFixture, DisabledChannelEvaluatesNoArguments)
{
    const trace::Channel &lazy = trace::channel("lazy");
    int evaluated = 0;
    auto sideEffect = [&evaluated] { return ++evaluated; };

    CSB_TRACE(lazy, "n=", sideEffect());
    EXPECT_EQ(evaluated, 0);
    EXPECT_TRUE(out.str().empty());

    trace::enable("lazy");
    CSB_TRACE(lazy, "n=", sideEffect());
    EXPECT_EQ(evaluated, 1);
    EXPECT_NE(out.str().find("lazy: n=1"), std::string::npos);

    trace::disable("lazy");
    CSB_TRACE(lazy, "n=", sideEffect());
    EXPECT_EQ(evaluated, 1);
}

TEST_F(TraceFixture, ChannelsAreInterned)
{
    EXPECT_EQ(&trace::channel("same"), &trace::channel("same"));
    EXPECT_NE(&trace::channel("same"), &trace::channel("other"));
}

/** enable("all") covers channels interned before and after it. */
TEST_F(TraceFixture, AllCoversLaterChannels)
{
    const trace::Channel &before = trace::channel("before-all");
    trace::enable("all");
    EXPECT_TRUE(before.enabled());
    EXPECT_TRUE(trace::channel("after-all").enabled());
    trace::disable("all");
    EXPECT_FALSE(before.enabled());
    EXPECT_FALSE(trace::channel("after-all").enabled());
}

/**
 * Sweep workers trace while the channel may be toggled: enable() and
 * disable() flip an atomic flag, so this stays race-free (the tsan
 * preset runs it under ThreadSanitizer) and every line is whole.
 */
TEST_F(TraceFixture, ConcurrentToggleAndEmit)
{
    const trace::Channel &busy = trace::channel("busy");
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
        workers.emplace_back([&busy, &stop] {
            while (!stop.load())
                CSB_TRACE(busy, "tick");
        });
    }
    for (int i = 0; i < 200; ++i) {
        trace::enable("busy");
        std::this_thread::yield();
        trace::disable("busy");
    }
    stop.store(true);
    for (std::thread &w : workers)
        w.join();

    const std::string line = "[        -] busy: tick\n";
    const std::string text = out.str();
    ASSERT_EQ(text.size() % line.size(), 0u);
    for (std::size_t pos = 0; pos < text.size(); pos += line.size())
        ASSERT_EQ(text.compare(pos, line.size(), line), 0) << pos;
}

} // namespace
