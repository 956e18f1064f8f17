// Observability front end: an Observatory bundles a MetricRegistry and an
// EventTracer, and instrumentation sites reach the *current* observatory
// through macros.
//
// Cost model (the contract every instrumentation site relies on):
//  * Compile-time off  — building with -DSRC_OBS_DISABLE removes every
//    macro body; argument expressions are never evaluated.
//  * Runtime off (default) — no Observatory installed: each site is one
//    thread-local pointer load and a predictable branch. No allocation, no
//    argument evaluation (arguments sit inside the guarded block).
//  * Runtime on — recording is passive: it never schedules simulator
//    events, never consults simulation RNGs, and never mutates simulated
//    state, so an observed run is bit-identical to an unobserved one.
//
// The current observatory is a thread-local stack (ObsScope), matching the
// repo's one-Simulator-per-thread parallelism: a sweep can observe each
// worker independently, and a sim::LaneGroup installs one observatory per
// shard while it runs that shard, merging them into the caller's between
// run_until calls (DESIGN.md §7).
#pragma once

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace src::obs {

struct ObsConfig {
  /// Record spans/instants/counter samples into the ring buffer. Metrics
  /// are always on while an observatory is installed (they are cheap);
  /// tracing is the voluminous part and can be left off independently.
  bool tracing = true;
  std::size_t trace_capacity = EventTracer::kDefaultCapacity;
};

class Observatory {
 public:
  /// `reserve_trace` false grows the trace ring on demand (see EventTracer).
  explicit Observatory(ObsConfig config = {}, bool reserve_trace = true)
      : tracer_(config.trace_capacity, reserve_trace),
        tracing_(config.tracing) {}

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  EventTracer& tracer() { return tracer_; }
  const EventTracer& tracer() const { return tracer_; }

  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }
  ObsConfig config() const { return ObsConfig{tracing_, tracer_.capacity()}; }

  /// Fold another observatory's record into this one (see
  /// MetricRegistry::merge and EventTracer::append).
  void merge(const Observatory& other) {
    metrics_.merge(other.metrics_);
    tracer_.append(other.tracer_);
  }

  std::string metrics_json(int indent = 2) const {
    return metrics_.snapshot_json(indent);
  }
  std::string trace_json(int indent = -1) const {
    return tracer_.to_chrome_json_string(indent);
  }

 private:
  MetricRegistry metrics_;
  EventTracer tracer_;
  bool tracing_;
};

namespace detail {
inline Observatory*& current_slot() {
  // srclint:shared-ok(thread_local by design — each sweep worker binds its own observatory)
  thread_local Observatory* slot = nullptr;
  return slot;
}
}  // namespace detail

/// The observatory instrumentation macros record into; nullptr = disabled.
inline Observatory* current() { return detail::current_slot(); }

/// RAII scope installing an observatory as current on this thread.
/// Scopes nest; the previous observatory is restored on destruction.
class ObsScope {
 public:
  explicit ObsScope(Observatory* observatory) : previous_(detail::current_slot()) {
    detail::current_slot() = observatory;
  }
  ~ObsScope() { detail::current_slot() = previous_; }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  Observatory* previous_;
};

}  // namespace src::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. `name`/`cat` must be string literals; `ts`/`dur`
// and SRC_OBS_LATENCY_US's `latency` are SimTime (ns), the latter kept in a
// microsecond histogram; `lane` must be a *deterministic* small integer
// (node id, device index) — never a pointer — or identical runs would
// produce different traces. Argument expressions are evaluated only when an
// observatory is installed (and, for trace macros, tracing is on), so call
// sites may pass expressions that are costly to compute.
// ---------------------------------------------------------------------------
#if defined(SRC_OBS_DISABLE)

#define SRC_OBS_COUNT(name) ((void)0)
#define SRC_OBS_COUNT_ADD(name, delta) ((void)0)
#define SRC_OBS_GAUGE(name, value) ((void)0)
#define SRC_OBS_LATENCY_US(name, latency) ((void)0)
#define SRC_OBS_SPAN(cat, name, start, dur, lane, value) ((void)0)
#define SRC_OBS_INSTANT(cat, name, ts, lane, value) ((void)0)
#define SRC_OBS_TRACE_COUNTER(cat, name, ts, lane, value) ((void)0)

#else

#define SRC_OBS_COUNT(name)                                      \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current()) \
      obs_o_->metrics().counter(name).inc();                     \
  } while (0)

#define SRC_OBS_COUNT_ADD(name, delta)                           \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current()) \
      obs_o_->metrics().counter(name).inc(delta);                \
  } while (0)

#define SRC_OBS_GAUGE(name, value)                               \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current()) \
      obs_o_->metrics().gauge(name).set(value);                  \
  } while (0)

#define SRC_OBS_LATENCY_US(name, latency)                        \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current()) \
      obs_o_->metrics().histogram(name).record(latency);         \
  } while (0)

#define SRC_OBS_SPAN(cat, name, start, dur, lane, value)                      \
  do {                                                                        \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current();              \
        obs_o_ != nullptr && obs_o_->tracing())                               \
      obs_o_->tracer().complete(cat, name, start, dur, lane, value);          \
  } while (0)

#define SRC_OBS_INSTANT(cat, name, ts, lane, value)              \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current(); \
        obs_o_ != nullptr && obs_o_->tracing())                  \
      obs_o_->tracer().instant(cat, name, ts, lane, value);      \
  } while (0)

#define SRC_OBS_TRACE_COUNTER(cat, name, ts, lane, value)        \
  do {                                                           \
    if (::src::obs::Observatory* obs_o_ = ::src::obs::current(); \
        obs_o_ != nullptr && obs_o_->tracing())                  \
      obs_o_->tracer().counter(cat, name, ts, lane, value);      \
  } while (0)

#endif  // SRC_OBS_DISABLE
