// Property tests for the observability primitives (src/obs): histogram
// snapshots and merges, counter monotonicity, ring-buffer bounds, JSON
// round trips, and macro/scope routing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace src::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge / MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistry, CountersAreMonotone) {
  // Property: a counter's value never decreases across any inc() sequence.
  std::uint64_t state = 42;
  MetricRegistry registry;
  Counter& counter = registry.counter("test.monotone");
  std::uint64_t previous = counter.value();
  for (int i = 0; i < 10000; ++i) {
    counter.inc(common::splitmix64(state) % 5);
    ASSERT_GE(counter.value(), previous);
    previous = counter.value();
  }
}

TEST(MetricRegistry, ReferencesSurviveLaterInsertions) {
  MetricRegistry registry;
  Counter& first = registry.counter("a.first");
  first.inc();
  // Interning many more metrics must not invalidate the reference.
  for (int i = 0; i < 1000; ++i) {
    registry.counter("b.bulk." + std::to_string(i)).inc();
  }
  first.inc();
  EXPECT_EQ(registry.find_counter("a.first")->value(), 2u);
  EXPECT_EQ(registry.size(), 1001u);
}

TEST(MetricRegistry, FindReturnsNullForUntouchedMetrics) {
  MetricRegistry registry;
  registry.counter("present");
  EXPECT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.find_gauge("absent"), nullptr);
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
}

TEST(MetricRegistry, SnapshotRoundTripsThroughParser) {
  MetricRegistry registry;
  registry.counter("net.cnps").inc(7);
  registry.gauge("core.weight").set(4.0);
  registry.histogram("nvme.read_latency_us").record(123 * common::kMicrosecond);

  const Json parsed = Json::parse(registry.snapshot_json());
  EXPECT_EQ(parsed.find("counters")->find("net.cnps")->as_uint64(), 7u);
  EXPECT_DOUBLE_EQ(parsed.find("gauges")->find("core.weight")->as_double(), 4.0);
  const Json* hist = parsed.find("histograms")->find("nvme.read_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("total")->as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_double(), 123.0);
  // counts has one more entry than bounds (the clamp bucket).
  EXPECT_EQ(hist->find("counts")->as_array().size(),
            hist->find("bounds")->as_array().size() + 1);
}

TEST(MetricRegistry, HistogramBoundsAreStrictlyAscending) {
  using common::LatencyRecorder;
  MetricRegistry registry;
  registry.histogram("h").record(common::kMillisecond);
  const Json parsed = Json::parse(registry.snapshot_json());
  const Json::Array& bounds =
      parsed.find("histograms")->find("h")->find("bounds")->as_array();
  ASSERT_EQ(bounds.size(), LatencyRecorder::kBuckets - 1);
  for (std::size_t k = 1; k <= bounds.size(); ++k) {
    // Bound k - 1 is the edge between buckets k - 1 and k: 10^(k/8) us.
    ASSERT_DOUBLE_EQ(bounds[k - 1].as_double(), LatencyRecorder::edge_us(k));
    if (k > 1) {
      ASSERT_LT(bounds[k - 2].as_double(), bounds[k - 1].as_double());
    }
  }
}

TEST(MetricRegistry, MergeAddsLatencyHistograms) {
  // Integer-us samples keep every sum exact, so the merged snapshot must
  // equal the one-registry snapshot byte for byte.
  MetricRegistry first, second, whole;
  common::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const common::SimTime latency =
        static_cast<common::SimTime>(rng.uniform_index(5'000'000) + 1) *
        common::kMicrosecond;
    // Writes come only from odd samples, so only the second registry has
    // that histogram and the merge must create it.
    const char* name = i % 6 == 1 ? "fabric.write_latency_us" : "nvme.read_latency_us";
    MetricRegistry& half = i % 2 == 0 ? first : second;
    half.histogram(name).record(latency);
    whole.histogram(name).record(latency);
  }
  first.merge(second);
  EXPECT_EQ(first.snapshot_json(), whole.snapshot_json());
  EXPECT_EQ(first.find_histogram("nvme.read_latency_us")->count() +
                first.find_histogram("fabric.write_latency_us")->count(),
            2000u);
}

// ---------------------------------------------------------------------------
// EventTracer ring buffer
// ---------------------------------------------------------------------------

TEST(EventTracer, RingNeverExceedsCapacity) {
  // Property: size() <= capacity() at every point, for any record count.
  EventTracer tracer(64);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tracer.instant("sim", "tick", static_cast<common::SimTime>(i));
    ASSERT_LE(tracer.size(), tracer.capacity());
    ASSERT_EQ(tracer.recorded(), i + 1);
    ASSERT_EQ(tracer.dropped(), tracer.recorded() - tracer.size());
  }
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.dropped(), 1000u - 64u);
}

TEST(EventTracer, OverflowKeepsNewestEventsInOrder) {
  EventTracer tracer(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.instant("sim", "tick", static_cast<common::SimTime>(i));
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest surviving event first, newest last; timestamps 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, static_cast<common::SimTime>(12 + i));
  }
}

TEST(EventTracer, ClearResetsEverything) {
  EventTracer tracer(4);
  for (int i = 0; i < 10; ++i) tracer.instant("sim", "tick", i);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.instant("sim", "tick", 99);
  EXPECT_EQ(tracer.events().front().ts, 99);
}

TEST(EventTracer, ChromeJsonRoundTripsThroughParser) {
  EventTracer tracer;
  tracer.complete("nvme", "read", 1000, 2500, /*lane=*/3, /*value=*/4096.0);
  tracer.instant("net", "pfc.pause", 5000, /*lane=*/1);
  tracer.counter("core", "src.weight_ratio", 7000, /*lane=*/0, 4.0);
  tracer.counter("net", "dcqcn.rate_mbps", 8000, /*lane=*/2, 1234.5);

  const Json parsed = Json::parse(tracer.to_chrome_json_string());
  const Json::Array& events = parsed.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 4u);

  const Json& span = events[0];
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_EQ(span.find("name")->as_string(), "read");
  EXPECT_EQ(span.find("cat")->as_string(), "nvme");
  EXPECT_DOUBLE_EQ(span.find("ts")->as_double(), 1.0);    // us
  EXPECT_DOUBLE_EQ(span.find("dur")->as_double(), 2.5);   // us
  EXPECT_EQ(span.find("tid")->as_uint64(), 3u);
  // Lossless ns originals ride in args.
  EXPECT_EQ(span.find("args")->find("ts_ns")->as_uint64(), 1000u);
  EXPECT_EQ(span.find("args")->find("dur_ns")->as_uint64(), 2500u);

  const Json& instant = events[1];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("s")->as_string(), "t");

  // Counter on lane 0 keeps its bare name; non-zero lanes are suffixed so
  // Chrome renders distinct tracks.
  EXPECT_EQ(events[2].find("name")->as_string(), "src.weight_ratio");
  EXPECT_EQ(events[3].find("name")->as_string(), "dcqcn.rate_mbps[2]");
  EXPECT_DOUBLE_EQ(events[3].find("args")->find("value")->as_double(), 1234.5);
}

// ---------------------------------------------------------------------------
// Json parser
// ---------------------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesStructure) {
  Json root{Json::Object{}};
  root.set("int", Json{std::int64_t{-42}});
  root.set("big", Json{std::uint64_t{1} << 52});
  root.set("pi", Json{3.141592653589793});
  root.set("text", Json{"with \"quotes\" and \\slashes\\ and \n newlines"});
  root.set("flag", Json{true});
  root.set("nothing", Json{});
  root.set("list", Json{Json::Array{Json{1}, Json{"two"}, Json{false}}});

  for (const int indent : {-1, 0, 2}) {
    const Json parsed = Json::parse(root.dump(indent));
    EXPECT_EQ(parsed.find("int")->as_int64(), -42);
    EXPECT_EQ(parsed.find("big")->as_uint64(), std::uint64_t{1} << 52);
    EXPECT_DOUBLE_EQ(parsed.find("pi")->as_double(), 3.141592653589793);
    EXPECT_EQ(parsed.find("text")->as_string(),
              "with \"quotes\" and \\slashes\\ and \n newlines");
    EXPECT_TRUE(parsed.find("flag")->as_bool());
    EXPECT_TRUE(parsed.find("nothing")->is_null());
    ASSERT_EQ(parsed.find("list")->as_array().size(), 3u);
    EXPECT_EQ(parsed.find("list")->as_array()[1].as_string(), "two");
    // A second round trip is a fixed point.
    EXPECT_EQ(parsed.dump(indent), Json::parse(parsed.dump(indent)).dump(indent));
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("'single'"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Observatory scope + macros
// ---------------------------------------------------------------------------

TEST(ObsScope, NestsAndRestoresPrevious) {
  EXPECT_EQ(current(), nullptr);
  Observatory outer, inner;
  {
    ObsScope scope_outer(&outer);
    EXPECT_EQ(current(), &outer);
    {
      ObsScope scope_inner(&inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(ObsMacros, RecordOnlyIntoTheCurrentObservatory) {
  // With no observatory installed the macros are no-ops and must not
  // evaluate their arguments.
  int evaluations = 0;
  auto count_eval = [&evaluations] {
    ++evaluations;
    return 1.0;
  };
  SRC_OBS_GAUGE("test.gauge", count_eval());
#if defined(SRC_OBS_DISABLE)
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 0);  // runtime-off: argument not evaluated either

  Observatory observatory;
  {
    ObsScope scope(&observatory);
    SRC_OBS_COUNT("test.count");
    SRC_OBS_COUNT_ADD("test.count", 2);
    SRC_OBS_GAUGE("test.gauge", count_eval());
    SRC_OBS_LATENCY_US("test.latency_us", 17 * common::kMicrosecond);
    SRC_OBS_SPAN("sim", "span", 100, 50, 1, 0.0);
    SRC_OBS_INSTANT("sim", "instant", 200, 1, 0.0);
    SRC_OBS_TRACE_COUNTER("sim", "counter", 300, 1, 5.0);
  }
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(observatory.metrics().find_counter("test.count")->value(), 3u);
  EXPECT_DOUBLE_EQ(observatory.metrics().find_gauge("test.gauge")->value(), 1.0);
  EXPECT_EQ(observatory.metrics().find_histogram("test.latency_us")->count(), 1u);
  EXPECT_EQ(observatory.tracer().size(), 3u);

  // Outside the scope: back to no-op.
  SRC_OBS_COUNT("test.count");
  EXPECT_EQ(observatory.metrics().find_counter("test.count")->value(), 3u);
#endif
}

#if !defined(SRC_OBS_DISABLE)
TEST(ObsMacros, TracingToggleGatesTraceMacrosOnly) {
  ObsConfig config;
  config.tracing = false;
  Observatory observatory(config);
  ObsScope scope(&observatory);
  SRC_OBS_COUNT("test.count");
  SRC_OBS_SPAN("sim", "span", 0, 10, 0, 0.0);
  SRC_OBS_INSTANT("sim", "instant", 0, 0, 0.0);
  SRC_OBS_TRACE_COUNTER("sim", "counter", 0, 0, 1.0);
  EXPECT_EQ(observatory.metrics().find_counter("test.count")->value(), 1u);
  EXPECT_EQ(observatory.tracer().size(), 0u);
}
#endif

}  // namespace
}  // namespace src::obs
