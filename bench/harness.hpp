// Shared bench harness: wall-clock timing, events/sec accounting, and
// machine-readable BENCH_<name>.json emission so the perf trajectory of the
// reproduction is populated PR-over-PR and regressions are visible in CI
// artifacts instead of scrollback.
//
// Wall-clock use is deliberate and confined to this harness: it measures
// host execution time of finished simulations and never feeds simulation
// state, so determinism rule R1 is suppressed file-wide here.
// srclint:nondet-ok-file
//
// Usage, figure-style benches (one timed section per grid/stage):
//
//   src::bench::Harness harness("fig5_weight_sweep");
//   {
//     auto scope = harness.scope("size=10KB");
//     ... run simulations ...
//     scope.events(result.events_executed);   // accumulate as you go
//     scope.items(cells);
//   }                                          // section recorded here
//
// Usage, micro benches (repeat a workload until the timing is stable):
//
//   harness.repeat("schedule_drain/n=1000", /*items_per_iter=*/1000,
//                  [&] { ... return events_executed; });
//
// repeat_with_setup(label, items, setup, fn) runs setup() untimed before
// each timed fn(), so a section can time a run without its rig's build.
//
// On destruction the harness prints a human summary and writes
// BENCH_<name>.json (schema "src-bench-v1", see DESIGN.md §10) to
// $SRC_BENCH_OUT (a directory; default ".").  Every section carries
// wall_seconds, iterations, events, events_per_sec, items, items_per_sec.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace src::bench {

class Harness {
  using Clock = std::chrono::steady_clock;

 public:
  struct Record {
    std::string name;
    double wall_seconds = 0.0;
    std::uint64_t iterations = 0;
    std::uint64_t events = 0;  ///< simulator events dispatched in the section
    std::uint64_t items = 0;   ///< bench-defined unit (cells, requests, ...)

    double events_per_sec() const {
      return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
    }
    double items_per_sec() const {
      return wall_seconds > 0.0 ? static_cast<double>(items) / wall_seconds : 0.0;
    }
  };

  /// RAII timed section; counters are accumulated on the scope and the
  /// record is committed when the scope dies.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : harness_(other.harness_), record_(std::move(other.record_)),
          start_(other.start_) {
      other.harness_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    ~Scope() {
      if (harness_ == nullptr) return;
      record_.wall_seconds = seconds_since(start_);
      harness_->commit(std::move(record_));
    }

    void events(std::uint64_t n) { record_.events += n; }
    void items(std::uint64_t n) { record_.items += n; }

   private:
    friend class Harness;
    Scope(Harness* harness, std::string name) : harness_(harness) {
      record_.name = std::move(name);
      record_.iterations = 1;
      start_ = Clock::now();
    }

    Harness* harness_;
    Record record_;
    Clock::time_point start_;
  };

  explicit Harness(std::string name) : name_(std::move(name)), start_(Clock::now()) {}

  ~Harness() {
    total_wall_seconds_ = seconds_since(start_);
    print_summary();
    write_json();
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  Scope scope(std::string label) { return Scope(this, std::move(label)); }

  /// Repeat `fn` until at least `min_seconds` of wall time and `min_iters`
  /// iterations have accumulated (fresh-state microbench loop). `fn` returns
  /// the number of simulator events the iteration dispatched (0 when the
  /// workload is not event-based).
  template <typename F>
  const Record& repeat(const std::string& label, std::uint64_t items_per_iter,
                       F&& fn, double min_seconds = 0.5,
                       std::uint64_t min_iters = 3) {
    return repeat_with_setup(label, items_per_iter, [] {}, std::forward<F>(fn),
                             min_seconds, min_iters);
  }

  /// As repeat(), but each iteration first runs `setup()` outside the timed
  /// region: a section that times a simulation alone builds its rig there.
  template <typename S, typename F>
  const Record& repeat_with_setup(const std::string& label, std::uint64_t items_per_iter,
                                  S&& setup, F&& fn, double min_seconds = 0.5,
                                  std::uint64_t min_iters = 3) {
    Record record;
    record.name = label;
    while (record.wall_seconds < min_seconds || record.iterations < min_iters) {
      setup();
      const Clock::time_point t0 = Clock::now();
      record.events += static_cast<std::uint64_t>(fn());
      record.wall_seconds += seconds_since(t0);
      ++record.iterations;
      record.items += items_per_iter;
    }
    commit(std::move(record));
    return records_.back();
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void commit(Record record) { records_.push_back(std::move(record)); }

  static std::string human_rate(double per_sec) {
    char buf[32];
    if (per_sec >= 1e6) {
      std::snprintf(buf, sizeof(buf), "%.2fM", per_sec / 1e6);
    } else if (per_sec >= 1e3) {
      std::snprintf(buf, sizeof(buf), "%.1fk", per_sec / 1e3);
    } else {
      std::snprintf(buf, sizeof(buf), "%.1f", per_sec);
    }
    return buf;
  }

  void print_summary() const {
    std::printf("\n-- bench %s --\n", name_.c_str());
    for (const Record& r : records_) {
      std::printf("  %-40s %8.3f s  %6llu iters", r.name.c_str(), r.wall_seconds,
                  static_cast<unsigned long long>(r.iterations));
      if (r.events > 0) {
        std::printf("  %9s events/s", human_rate(r.events_per_sec()).c_str());
      }
      if (r.items > 0) {
        std::printf("  %9s items/s", human_rate(r.items_per_sec()).c_str());
      }
      std::printf("\n");
    }
    std::printf("  total wall time: %.3f s\n", total_wall_seconds_);
  }

  void write_json() const {
    obs::Json sections;
    for (const Record& r : records_) {
      obs::Json section;
      section.set("name", r.name);
      section.set("wall_seconds", r.wall_seconds);
      section.set("iterations", r.iterations);
      section.set("events", r.events);
      section.set("events_per_sec", r.events_per_sec());
      section.set("items", r.items);
      section.set("items_per_sec", r.items_per_sec());
      sections.push_back(std::move(section));
    }
    obs::Json doc;
    doc.set("schema", "src-bench-v1");
    doc.set("bench", name_);
    doc.set("total_wall_seconds", total_wall_seconds_);
    if (sections.is_null()) sections = obs::Json::Array{};
    doc.set("sections", std::move(sections));

    const char* dir = std::getenv("SRC_BENCH_OUT");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench harness: cannot write %s\n", path.c_str());
      return;
    }
    out << doc.dump(2) << '\n';
    std::printf("  wrote %s\n", path.c_str());
  }

  std::string name_;
  Clock::time_point start_;
  double total_wall_seconds_ = 0.0;
  std::vector<Record> records_;
};

}  // namespace src::bench
