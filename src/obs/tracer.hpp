// Event tracer: timestamped spans, instants, and counter samples recorded
// into a bounded ring buffer and exported as Chrome trace_event JSON —
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Recording is O(1), allocation-free after construction, and passive (no
// simulator interaction), so tracing cannot perturb a run. Event names and
// categories are `const char*` and must point at string literals (static
// storage); per-entity series are separated by the integer `lane` instead
// of dynamic strings — lanes become Chrome thread ids, one swimlane per
// entity, and counter tracks append "[lane]" to stay distinct.
//
// When the ring fills, the oldest events are overwritten (the tail of a run
// is usually the interesting part) and `dropped()` counts the overwrites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace src::obs {

/// One trace record. `phase` follows the Chrome trace_event phases used
/// here: 'X' = complete span (ts + dur), 'i' = instant, 'C' = counter.
struct TraceEvent {
  common::SimTime ts = 0;   ///< event start, simulated ns
  common::SimTime dur = 0;  ///< span duration ('X' only)
  const char* cat = "";     ///< layer: "sim","net","nvme","ssd","fabric","core"
  const char* name = "";
  char phase = 'i';
  std::uint32_t lane = 0;   ///< deterministic entity id (host, device, ...)
  double value = 0.0;       ///< counter sample / span payload
};

class EventTracer {
 public:
  /// `reserve` false grows the ring on demand instead of allocating all
  /// of it up front (recording then allocates until the ring is full).
  explicit EventTracer(std::size_t capacity = kDefaultCapacity,
                       bool reserve = true)
      : capacity_(capacity == 0 ? 1 : capacity) {
    if (reserve) ring_.reserve(capacity_);
  }

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  /// Completed span: work of known duration (an I/O, a GC pass).
  void complete(const char* cat, const char* name, common::SimTime start,
                common::SimTime dur, std::uint32_t lane = 0, double value = 0.0) {
    push(TraceEvent{start, dur, cat, name, 'X', lane, value});
  }

  /// Point event (a pause frame, a weight change).
  void instant(const char* cat, const char* name, common::SimTime ts,
               std::uint32_t lane = 0, double value = 0.0) {
    push(TraceEvent{ts, 0, cat, name, 'i', lane, value});
  }

  /// Time-series sample (queue occupancy, current rate, weight ratio).
  void counter(const char* cat, const char* name, common::SimTime ts,
               std::uint32_t lane, double value) {
    push(TraceEvent{ts, 0, cat, name, 'C', lane, value});
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }

  /// Record `other`'s surviving events after this tracer's, oldest first;
  /// the events `other` already dropped count as recorded and dropped here.
  void append(const EventTracer& other) {
    for (const TraceEvent& event : other.events()) push(event);
    recorded_ += other.dropped();
  }

  void clear() {
    ring_.clear();
    next_ = 0;
    recorded_ = 0;
  }

  /// Events in recording order (oldest surviving event first).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
      out = ring_;
    } else {
      out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
      out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    }
    return out;
  }

  /// Chrome trace_event JSON. `ts`/`dur` are microseconds (the format's
  /// unit); the simulated-ns originals ride in args for lossless round
  /// trips. Spans/instants map lane -> tid so each entity gets a swimlane;
  /// counter tracks are keyed by name in Chrome, so the lane is appended.
  Json to_chrome_json() const {
    Json::Array events_json;
    for (const TraceEvent& e : events()) {
      Json entry{Json::Object{}};
      if (e.phase == 'C' && e.lane != 0) {
        entry.set("name", Json{std::string(e.name) + "[" + std::to_string(e.lane) + "]"});
      } else {
        entry.set("name", Json{e.name});
      }
      entry.set("cat", Json{e.cat});
      entry.set("ph", Json{std::string(1, e.phase)});
      entry.set("ts", Json{static_cast<double>(e.ts) / 1e3});
      if (e.phase == 'X') entry.set("dur", Json{static_cast<double>(e.dur) / 1e3});
      if (e.phase == 'i') entry.set("s", Json{"t"});  // instant scope: thread
      entry.set("pid", Json{1});
      entry.set("tid", Json{static_cast<std::uint64_t>(e.lane)});
      Json args{Json::Object{}};
      args.set("value", Json{e.value});
      args.set("ts_ns", Json{static_cast<std::uint64_t>(e.ts)});
      if (e.phase == 'X') args.set("dur_ns", Json{static_cast<std::uint64_t>(e.dur)});
      entry.set("args", std::move(args));
      events_json.push_back(std::move(entry));
    }
    Json root{Json::Object{}};
    root.set("displayTimeUnit", Json{"ns"});
    root.set("traceEvents", Json{std::move(events_json)});
    return root;
  }

  std::string to_chrome_json_string(int indent = -1) const {
    return to_chrome_json().dump(indent);
  }

 private:
  void push(const TraceEvent& event) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
      return;
    }
    ring_[next_] = event;  // overwrite the oldest slot
    next_ = (next_ + 1) % capacity_;
  }

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;          ///< oldest slot once the ring is full
  std::uint64_t recorded_ = 0;
};

}  // namespace src::obs
