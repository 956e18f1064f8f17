// String-keyed factory registries: the seam between declarative scenario
// manifests and the concrete component types they name. A manifest says
// "dcqcn", "ssq", "SSD-A", "synthetic", or "train-default"; the registries
// resolve those names at build time, and new components extend a scenario
// capability by registering under a new name in exactly one place (the
// registry's initializer in registry.cpp, or a downstream add() call) — no
// parser or builder changes.
//
// Determinism: registries are std::map-backed so names() enumerates in a
// stable order (help text, error messages, and `srcctl scenarios` output
// must not depend on hashing).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tpm.hpp"
#include "fabric/target.hpp"
#include "scenario/spec.hpp"
#include "workload/trace.hpp"

namespace src::scenario {

/// A named-component table. Lookup failures throw std::invalid_argument
/// listing every registered name, so a typo in a manifest is a one-line fix.
template <typename Value>
class Registry {
 public:
  /// `what` names the component family in error messages ("driver", ...).
  explicit Registry(std::string what) : what_(std::move(what)) {}

  void add(const std::string& name, Value value) {
    const auto [it, inserted] = entries_.emplace(name, std::move(value));
    (void)it;
    if (!inserted) {
      throw std::invalid_argument(what_ + " registry: duplicate name '" +
                                  name + "'");
    }
  }

  const Value* find(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  const Value& at(const std::string& name) const {
    const Value* value = find(name);
    if (value == nullptr) {
      throw std::invalid_argument("unknown " + what_ + " '" + name +
                                  "' (known: " + known_list() + ")");
    }
    return *value;
  }

  /// "a, b, c" — the registered names joined for diagnostics, in the same
  /// sorted order as names().
  std::string known_list() const {
    std::string known;
    for (const auto& [key, unused] : entries_) {
      (void)unused;
      if (!known.empty()) known += ", ";
      known += key;
    }
    return known;
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, unused] : entries_) {
      (void)unused;
      out.push_back(key);
    }
    return out;
  }

  /// Ordered (name -> value) view, for reverse lookups and enumeration.
  const std::map<std::string, Value>& entries() const { return entries_; }

 private:
  std::string what_;
  std::map<std::string, Value> entries_;
};

/// NVMe driver policy names -> fabric::DriverMode ("auto" -> nullopt,
/// resolved from SrcSpec::enabled at build time).
Registry<std::optional<fabric::DriverMode>>& driver_registry();

/// Congestion-controller names -> NetConfig::cc_algorithm values (hosts
/// build the controllers themselves, through net::make_rate_controller).
Registry<int>& cc_registry();
/// Reverse lookup for serialization; throws on an unregistered value.
std::string cc_name(int cc_algorithm);

/// SSD preset names ("SSD-A"...) -> config factories. A manifest may start
/// from a preset and override individual fields.
Registry<std::function<ssd::SsdConfig()>>& ssd_registry();

/// Workload kinds -> trace factories. The factory receives the WorkloadSpec
/// and the per-initiator seed (spec seed + stride * initiator index).
using WorkloadFactory =
    std::function<workload::Trace(const WorkloadSpec&, std::uint64_t seed)>;
Registry<WorkloadFactory>& workload_registry();

/// TPM sources -> factories producing a fitted model (nullptr for "none").
using TpmFactory = std::function<std::shared_ptr<const core::Tpm>(
    const TpmSpec&, const ssd::SsdConfig&)>;
Registry<TpmFactory>& tpm_registry();

}  // namespace src::scenario
