// Shared pieces of the repo benchmark: run arguments, the metric sink each
// workload fills, host-time spans for the traced run, and small statistics
// helpers. Everything here measures the simulator from outside, through its
// public API; nothing in src/ is instrumented for the benchmark.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunk inputs for the self-test: same code paths, seconds not minutes.
  bool tiny = false;
  /// Repo root (manifests are read relative to it).
  std::string root = ".";
  /// Traced runs write their spans, obs counters and summary here.
  std::string out_dir;
};

/// What a workload hands back to main(): correctness accounting plus every
/// metric it measured, by name. Names main() expects but a workload does not
/// set are layers that workload does not run; they print as 0.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// A check that is not one operation (e.g. a re-drive that must match).
  bool extra_checks_ok = true;
  std::map<std::string, double> metrics;
  /// Free-text remarks copied into the traced run's summary.
  std::vector<std::string> notes;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// Host-time spans around calls into the simulator's layers. Recording is on
/// only for traced runs; spans stay in memory and are written out once, as a
/// Chrome trace, when the run ends. Safe to record from several threads.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Times one call. stop() (or the destructor) ends the span and returns
  /// its length in seconds; the span is logged when the log is enabled.
  class Span {
   public:
    Span(SpanLog& log, const char* cat, std::string name)
        : log_(log), cat_(cat), name_(std::move(name)), start_(Clock::now()) {}
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop();

   private:
    SpanLog& log_;
    const char* cat_;
    std::string name_;
    Clock::time_point start_;
    bool stopped_ = false;
    double seconds_ = 0.0;
  };

  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* cat;
    std::string name;
    double start_us;
    double dur_us;
    std::uint32_t tid;
  };
  void add(const char* cat, std::string name, Clock::time_point start,
           Clock::time_point end);

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards records_ and tids_
  std::vector<Record> records_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// Pins the calling thread to one CPU of the process's allowed set until
/// destroyed, then restores the set. On the shared reference host each vCPU
/// has its own, persistent slowdown from neighbours, and a single-threaded
/// process stays on the vCPU it started on; rotating repetitions of one
/// instance over every CPU lets its fastest repetition find the uncontended
/// one. Only for single-threaded calls: threads started meanwhile inherit
/// the one-CPU mask.
class CpuPin {
 public:
  explicit CpuPin(std::size_t rotation);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Runs `round` back to back until `seconds` have passed (and at least
/// `min_rounds` times); returns each round's wall time in seconds.
template <typename F>
std::vector<double> timed_rounds(double seconds, std::size_t min_rounds,
                                 F&& round) {
  std::vector<double> times;
  const Stopwatch total;
  while (times.size() < min_rounds || total.seconds() < seconds) {
    const Stopwatch one;
    round(times.size());
    times.push_back(one.seconds());
  }
  return times;
}

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// The fastest of a run's rounds. The benchmark host is shared and its
/// neighbours slow rounds down by up to half for seconds at a time, so the
/// median round carries that noise; the fastest round of a deterministic
/// workload estimates its uncontended cost.
inline double fastest(std::vector<double> values) {
  return quantile(std::move(values), 0.0);
}
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// 64-bit FNV-1a, for result digests.
std::uint64_t fnv1a(const std::string& bytes);
std::string hex64(std::uint64_t value);

/// Process high-water RSS in MB.
double peak_rss_mb();

// Workloads (workloads.cpp). `lanes` selects the pod run's lane count.
Outcome run_vdi_src(const Args& args, SpanLog& spans);
Outcome run_pod_incast(const Args& args, SpanLog& spans, std::size_t lanes);
Outcome run_tpm_train(const Args& args, SpanLog& spans);

}  // namespace perfbench
