#include "perfbench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

double SpanLog::Span::stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (log_.enabled()) log_.add(cat_, std::move(name_), start_, end);
  return seconds_;
}

void SpanLog::add(const char* cat, std::string name, Clock::time_point start,
                  Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size() + 1));
  records_.push_back(Record{
      cat, std::move(name),
      std::chrono::duration<double, std::micro>(start - origin_).count(),
      std::chrono::duration<double, std::micro>(end - start).count(), it->second});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  using src::obs::Json;
  Json::Array events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Record& r : records_) {
      Json e{Json::Object{}};
      e.set("name", Json{r.name});
      e.set("cat", Json{r.cat});
      e.set("ph", Json{"X"});
      e.set("ts", Json{r.start_us});
      e.set("dur", Json{r.dur_us});
      e.set("pid", Json{std::uint64_t{1}});
      e.set("tid", Json{static_cast<std::uint64_t>(r.tid)});
      events.push_back(std::move(e));
    }
  }
  Json root{Json::Object{}};
  root.set("displayTimeUnit", Json{"ms"});
  root.set("traceEvents", Json{std::move(events)});
  std::ofstream out(path);
  out << root.dump(-1) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

CpuPin::CpuPin(std::size_t rotation) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int skip = static_cast<int>(rotation % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
