#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_prefix.hpp"
#include "telemetry/telemetry.hpp"

namespace remapd {
namespace telemetry {
namespace {

/// Scoped enable + clean slate, restoring disabled/empty state afterwards
/// so telemetry tests cannot leak into the rest of the suite.
class TelemetryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_all();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_all();
  }
};

// ---------------------------------------------------------------------------
// Counter / gauge / histogram math.

TEST_F(TelemetryFixture, CounterAddsAndResets) {
  Counter& c = Registry::instance().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryFixture, CounterHandleIsStableAcrossLookups) {
  Counter& a = Registry::instance().counter("test.stable");
  a.add(7);
  Counter& b = Registry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
}

TEST_F(TelemetryFixture, GaugeHoldsLastValue) {
  Gauge& g = Registry::instance().gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(TelemetryFixture, HistogramCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  for (const std::uint64_t v : {5u, 100u, 3u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1108u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST_F(TelemetryFixture, HistogramBucketIndexing) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  // Bucket b's upper bound is the largest value with bit width b.
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);
}

TEST_F(TelemetryFixture, HistogramPercentilesWithinBucketResolution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // Power-of-two buckets: the quantile comes back as a bucket upper bound,
  // so it can overshoot by at most 2x (and is clamped to the max).
  const std::uint64_t p50 = h.percentile(0.50);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 100u);
  const std::uint64_t p95 = h.percentile(0.95);
  EXPECT_GE(p95, 95u);
  EXPECT_LE(p95, 100u);
  EXPECT_EQ(h.percentile(1.0), 100u);
  // All-equal samples pin every quantile to the (clamped) observed value.
  Histogram uniform;
  for (int i = 0; i < 10; ++i) uniform.record(7);
  EXPECT_EQ(uniform.percentile(0.50), 7u);
  EXPECT_EQ(uniform.percentile(0.99), 7u);
}

TEST_F(TelemetryFixture, HistogramIsThreadSafe) {
  Histogram& h = Registry::instance().histogram("test.mt");
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < kPer; ++i) h.record(static_cast<std::uint64_t>(i));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kPer - 1));
}

// ---------------------------------------------------------------------------
// Spans, nesting, disabled-mode behavior.

TEST_F(TelemetryFixture, SpanRecordsNestingAndDuration) {
  {
    TraceSpan outer("outer", "test");
    TraceSpan inner("inner", "test");
  }
  const std::vector<TraceEvent> events = TraceBuffer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends first, so it is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].dur_ns, events[1].dur_ns);
  EXPECT_GE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(events[0].ph, 'X');
}

TEST_F(TelemetryFixture, InstantEventsCarryArgs) {
  trace_instant("remap", "core", "{\"sender\":3,\"receiver\":7}");
  const auto events = TraceBuffer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[0].dur_ns, 0u);
  EXPECT_EQ(events[0].args_json, "{\"sender\":3,\"receiver\":7}");
}

TEST_F(TelemetryFixture, DisabledModeIsANoOp) {
  set_enabled(false);
  {
    TraceSpan span("ghost", "test");
    trace_instant("ghost-instant", "test");
    count("test.ghost_counter");
    gauge_set("test.ghost_gauge", 9.0);
    observe("test.ghost_hist", 5);
  }
  EXPECT_EQ(TraceBuffer::instance().size(), 0u);
  EXPECT_EQ(Registry::instance().counter("test.ghost_counter").value(), 0u);
  EXPECT_DOUBLE_EQ(Registry::instance().gauge("test.ghost_gauge").value(),
                   0.0);
  EXPECT_EQ(Registry::instance().histogram("test.ghost_hist").count(), 0u);
}

TEST_F(TelemetryFixture, KernelTimerFeedsCounterAndHistogram) {
  Counter& calls = Registry::instance().counter("test.kernel_calls");
  Histogram& ns = Registry::instance().histogram("test.kernel_ns");
  { KernelTimer t(calls, ns); }
  { KernelTimer t(calls, ns); }
  EXPECT_EQ(calls.value(), 2u);
  EXPECT_EQ(ns.count(), 2u);

  set_enabled(false);
  { KernelTimer t(calls, ns); }
  EXPECT_EQ(calls.value(), 2u);
}

// ---------------------------------------------------------------------------
// Exporters.

/// Parse `text`, failing the test on a syntax error.
json::Value parsed(const std::string& text) {
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(text, &v, &err)) << err << "\n" << text;
  return v;
}

/// The trace event named `name`, or nullptr.
const json::Value* event_named(const json::Value& trace,
                               std::string_view name) {
  for (const json::Value& ev : trace.items)
    if (ev.text("name") == name) return &ev;
  return nullptr;
}

TEST_F(TelemetryFixture, ChromeTraceIsParseableJsonArrayOfXEvents) {
  {
    TraceSpan outer("epoch", "trainer", "{\"epoch\":0}");
    TraceSpan inner("forward", "trainer");
  }
  trace_instant("remap", "core", "{\"sender\":1,\"receiver\":2}");

  expect_only_whole_parses("chrome trace", chrome_trace_json());
  const json::Value trace = parsed(chrome_trace_json());
  ASSERT_TRUE(trace.is(json::Value::Kind::kArray));
  ASSERT_EQ(trace.items.size(), 3u);

  const json::Value* outer = event_named(trace, "epoch");
  const json::Value* inner = event_named(trace, "forward");
  const json::Value* remap = event_named(trace, "remap");
  ASSERT_TRUE(outer && inner && remap);
  EXPECT_EQ(outer->text("ph"), "X");
  EXPECT_EQ(inner->text("ph"), "X");
  EXPECT_EQ(inner->text("cat"), "trainer");
  EXPECT_GE(outer->num("dur", -1), inner->num("dur", -1));
  EXPECT_GE(inner->num("dur", -1), 0.0);
  ASSERT_NE(outer->find("args"), nullptr);
  EXPECT_EQ(outer->find("args")->num("epoch", -1), 0.0);
  EXPECT_EQ(inner->find("args"), nullptr);

  EXPECT_EQ(remap->text("ph"), "i");
  EXPECT_EQ(remap->find("dur"), nullptr);
  ASSERT_NE(remap->find("args"), nullptr);
  EXPECT_EQ(remap->find("args")->num("sender"), 1.0);
  EXPECT_EQ(remap->find("args")->num("receiver"), 2.0);
}

TEST_F(TelemetryFixture, EmptyTraceIsStillValidJson) {
  const json::Value trace = parsed(chrome_trace_json());
  EXPECT_TRUE(trace.is(json::Value::Kind::kArray));
  EXPECT_TRUE(trace.items.empty());
}

TEST_F(TelemetryFixture, JsonEscapingSurvivesHostileNames) {
  const std::string hostile =
      "quote\" back\\slash\nnewline\ttab\x01" "ctl \xc3\xa9 /";
  { TraceSpan span(hostile, "test"); }
  const json::Value trace = parsed(chrome_trace_json());
  ASSERT_EQ(trace.items.size(), 1u);
  EXPECT_EQ(trace.items[0].text("name"), hostile);
}

TEST_F(TelemetryFixture, JsonlEmitsOneObjectPerLine) {
  { TraceSpan span("alpha", "test"); }
  Registry::instance().counter("test.c").add(3);
  Registry::instance().histogram("test.h").record(11);

  // The registry keeps (zeroed) instruments of earlier tests, so key the
  // lines by type and name.
  std::map<std::string, json::Value> lines;
  std::istringstream is(jsonl());
  for (std::string line; std::getline(is, line);) {
    json::Value obj = parsed(line);
    lines.emplace(obj.text("type") + " " + obj.text("name"), std::move(obj));
  }
  EXPECT_EQ(lines["span alpha"].text("cat"), "test");
  EXPECT_EQ(lines["counter test.c"].num("value"), 3.0);
  EXPECT_EQ(lines["histogram test.h"].num("count"), 1.0);
  EXPECT_EQ(lines["histogram test.h"].num("max"), 11.0);
}

TEST_F(TelemetryFixture, SummaryTableListsSpansAndCounters) {
  { TraceSpan span("bist-survey", "trainer"); }
  Registry::instance().counter("noc.flits_injected").add(64);
  const std::string table = summary_table();
  EXPECT_NE(table.find("bist-survey"), std::string::npos);
  EXPECT_NE(table.find("noc.flits_injected"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
}

TEST_F(TelemetryFixture, RegistryResetZeroesButKeepsHandles) {
  Counter& c = Registry::instance().counter("test.reset_me");
  c.add(5);
  { TraceSpan span("soon-gone", "test"); }
  reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(TraceBuffer::instance().size(), 0u);
  c.add(2);
  EXPECT_EQ(Registry::instance().counter("test.reset_me").value(), 2u);
}

}  // namespace
}  // namespace telemetry
}  // namespace remapd
