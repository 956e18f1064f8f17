#include "scenario/registry.hpp"

#include "core/presets.hpp"
#include "net/config.hpp"
#include "workload/trace_io.hpp"

namespace src::scenario {

Registry<std::optional<fabric::DriverMode>>& driver_registry() {
  static Registry<std::optional<fabric::DriverMode>> registry = [] {
    Registry<std::optional<fabric::DriverMode>> r("driver");
    r.add("auto", std::nullopt);
    r.add("ssq", fabric::DriverMode::kSsq);
    r.add("fifo", fabric::DriverMode::kFifo);
    return r;
  }();
  return registry;
}

Registry<int>& cc_registry() {
  static Registry<int> registry = [] {
    Registry<int> r("congestion controller");
    r.add("dcqcn", static_cast<int>(net::CcAlgorithm::kDcqcn));
    r.add("dctcp", static_cast<int>(net::CcAlgorithm::kDctcp));
    r.add("swift", static_cast<int>(net::CcAlgorithm::kSwift));
    r.add("cubic", static_cast<int>(net::CcAlgorithm::kCubic));
    return r;
  }();
  return registry;
}

std::string cc_name(int cc_algorithm) {
  for (const auto& [name, value] : cc_registry().entries()) {
    if (value == cc_algorithm) return name;
  }
  throw std::invalid_argument("cc_name: unregistered cc_algorithm value " +
                              std::to_string(cc_algorithm));
}

Registry<std::function<ssd::SsdConfig()>>& ssd_registry() {
  static Registry<std::function<ssd::SsdConfig()>> registry = [] {
    Registry<std::function<ssd::SsdConfig()>> r("ssd preset");
    r.add("SSD-A", [] { return ssd::ssd_a(); });
    r.add("SSD-B", [] { return ssd::ssd_b(); });
    r.add("SSD-C", [] { return ssd::ssd_c(); });
    return r;
  }();
  return registry;
}

Registry<WorkloadFactory>& workload_registry() {
  static Registry<WorkloadFactory> registry = [] {
    Registry<WorkloadFactory> r("workload kind");
    r.add("micro", [](const WorkloadSpec& spec, std::uint64_t seed) {
      return workload::generate_micro(spec.micro, seed);
    });
    r.add("synthetic", [](const WorkloadSpec& spec, std::uint64_t seed) {
      return workload::generate_synthetic(spec.synthetic, seed);
    });
    // Trace replay is seed-free: the file *is* the workload. Every
    // initiator replays the same records.
    r.add("trace-file", [](const WorkloadSpec& spec, std::uint64_t) {
      return workload::read_csv_trace_file(spec.trace_path);
    });
    return r;
  }();
  return registry;
}

Registry<TpmFactory>& tpm_registry() {
  static Registry<TpmFactory> registry = [] {
    Registry<TpmFactory> r("tpm source");
    r.add("none", [](const TpmSpec&, const ssd::SsdConfig&) {
      return std::shared_ptr<const core::Tpm>();
    });
    r.add("train-default", [](const TpmSpec& spec, const ssd::SsdConfig& ssd) {
      return std::make_shared<const core::Tpm>(
          core::train_default_tpm(ssd, spec.train_seed));
    });
    r.add("file", [](const TpmSpec& spec, const ssd::SsdConfig&) {
      return std::make_shared<const core::Tpm>(
          core::Tpm::load_file(spec.path));
    });
    return r;
  }();
  return registry;
}

}  // namespace src::scenario
