#include "scenario/serialize.hpp"

#include <cmath>
#include <concepts>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "net/partition.hpp"
#include "scenario/registry.hpp"

namespace src::scenario {
namespace {

using obs::Json;

constexpr double kMaxExactInteger = 9.007199254740992e15;  // 2^53

[[noreturn]] void fail_at(const std::string& file, const std::string& path,
                          const std::string& message) {
  throw std::runtime_error(file + ":" + path + ": " + message);
}

std::string fmt_number(double v) {
  Json j{v};
  return j.dump();
}

/// Bounds of a `number` field.
enum class Range { kAny, kPositive, kNonNegative, kUnitInterval };

// --- the two visitors --------------------------------------------------------
//
// Every spec struct has one `fields(io, s)` declaration below; ObjectReader
// and ObjectWriter give the same field kinds their two meanings:
//   count   integer, bounded below by `min` and above by its C++ type
//   number  double within a Range
//   flag    true/false
//   text    string
//   name    a registry name (validated both ways), or a value mapped to one
//   time    SimTime: `<key>_ns` (native) or `<key>_us`/`<key>_ms` on input
//   rate    Rate: `<key>_bytes_per_sec` (native) or `_gbps`/`_mbps` on input
//   object  a nested struct (its own declaration) or an inline body
//   array   a vector of structs
// plus `check(ok, key, why)` for constraints within one block (reader only)
// and `emit_if(cond)`, which guards fields the writer omits (the reader
// always looks for them; absent keys keep the spec's defaults).

/// Strict reader over one JSON object: every getter records the keys it
/// touched and done() rejects whatever remains, so unknown (misspelled)
/// keys can never be silently ignored. Absent keys keep the spec's
/// defaults, which implements "manifest = preset + overrides".
class ObjectReader {
 public:
  static constexpr bool kReads = true;

  ObjectReader(const Json& json, const std::string& file, std::string path)
      : file_(file), path_(std::move(path)) {
    if (!json.is_object()) fail_at(file_, path_, "expected an object");
    object_ = &json.as_object();
  }

  static bool emit_if(bool) { return true; }

  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// `key` names the field to blame; a time or rate field is reported in
  /// the spelling the manifest used (the native one when it is absent).
  void check(bool ok, const std::string& key, const std::string& message) const {
    if (ok) return;
    const auto spelled = spelled_.find(key);
    fail(spelled == spelled_.end() ? key : spelled->second, message);
  }

  template <std::integral T>
  void count(const std::string& key, T& out, std::int64_t min = 0) {
    const Json* value = take(key);
    if (value == nullptr) return;
    if (!value->is_number()) fail(key, "expected a number");
    const double v = value->as_number();
    constexpr bool kSigned = std::is_signed_v<T>;
    // srclint:fp-ok(exactness check — floor(v)!=v rejects non-integral doubles)
    if (v != std::floor(v) || std::abs(v) > kMaxExactInteger ||
        (!kSigned && v < 0.0)) {
      fail(key, std::string(kSigned ? "expected an integer"
                                    : "expected a non-negative integer") +
                    " (got " + fmt_number(v) + ")");
    }
    const auto n = static_cast<std::int64_t>(v);
    if (n < min) {
      fail(key, "must be >= " + std::to_string(min) + " (got " +
                    std::to_string(n) + ")");
    }
    if (std::cmp_greater(n, std::numeric_limits<T>::max())) {
      fail(key, "must be <= " + std::to_string(std::numeric_limits<T>::max()) +
                    " (got " + std::to_string(n) + ")");
    }
    out = static_cast<T>(n);
  }

  void number(const std::string& key, double& out, Range range = Range::kAny) {
    if (const Json* value = take(key)) {
      if (!value->is_number()) fail(key, "expected a number");
      out = value->as_number();
    }
    const double v = out;
    const char* bound = nullptr;
    switch (range) {
      case Range::kAny: break;
      case Range::kPositive: if (!(v > 0.0)) bound = "must be > 0"; break;
      case Range::kNonNegative: if (!(v >= 0.0)) bound = "must be >= 0"; break;
      case Range::kUnitInterval:
        if (!(v >= 0.0 && v <= 1.0)) bound = "must be in [0, 1]";
        break;
    }
    if (bound != nullptr) {
      fail(key, std::string(bound) + " (got " + fmt_number(v) + ")");
    }
  }

  void flag(const std::string& key, bool& out) {
    const Json* value = take(key);
    if (value == nullptr) return;
    if (value->type() != Json::Type::kBool) fail(key, "expected true/false");
    out = value->as_bool();
  }

  void text(const std::string& key, std::string& out) {
    const Json* value = take(key);
    if (value == nullptr) return;
    if (!value->is_string()) fail(key, "expected a string");
    out = value->as_string();
  }

  /// A name that must be registered in `registry`.
  template <typename V>
  void name(const std::string& key, std::string& out, const Registry<V>& registry) {
    text(key, out);
    resolve(key, [&] { registry.at(out); });
  }

  /// A value spelled as a name; `from_name` throws std::invalid_argument
  /// (listing the known names) for an unknown one.
  template <typename T, typename ToName, typename FromName>
  void name(const std::string& key, T& out, ToName&&, FromName&& from_name) {
    if (!has(key)) return;
    std::string spelled;
    text(key, spelled);
    resolve(key, [&] { out = from_name(spelled); });
  }

  void time(const std::string& key, common::SimTime& out) {
    const std::string& spelled =
        spelling(key, {"_ns", "_us", "_ms"}, "give at most one of _ns/_us/_ms");
    if (spelled == key + "_ns") {
      count(spelled, out);
      return;
    }
    double v = 0.0;
    number(spelled, v, Range::kNonNegative);
    const bool micro = spelled == key + "_us";
    if (v * (micro ? 1e3 : 1e6) > kMaxExactInteger) {
      fail(spelled, "must be <= 2^53 ns (got " + fmt_number(v) + ")");
    }
    out = micro ? common::microseconds(v) : common::milliseconds(v);
  }

  void rate(const std::string& key, common::Rate& out) {
    const std::string& spelled =
        spelling(key, {"_bytes_per_sec", "_gbps", "_mbps"},
                 "give at most one of _bytes_per_sec/_gbps/_mbps");
    const bool native = spelled == key + "_bytes_per_sec";
    double v = native ? out.as_bytes_per_second() : 0.0;
    number(spelled, v, Range::kNonNegative);
    if (native) out = common::Rate::bytes_per_second(v);
    else if (spelled == key + "_gbps") out = common::Rate::gbps(v);
    else out = common::Rate::mbps(v);
  }

  /// A nested struct (read through its fields() declaration) or an inline
  /// body taking the child reader.
  template <typename T>
  void object(const std::string& key, T&& out) {
    const Json* value = take(key);
    if (value == nullptr) return;
    ObjectReader reader(*value, file_, child_path(key));
    if constexpr (std::is_invocable_v<T&, ObjectReader&>) {
      out(reader);
    } else {
      fields(reader, out);
    }
    reader.done();
  }

  /// An array of structs (absent = empty).
  template <typename T>
  void array(const std::string& key, std::vector<T>& out) {
    const Json* value = take(key);
    if (value == nullptr) return;
    if (!value->is_array()) fail(key, "expected an array");
    std::size_t index = 0;
    for (const Json& element : value->as_array()) {
      ObjectReader reader(element, file_,
                          child_path(key) + "[" + std::to_string(index++) + "]");
      T item;
      fields(reader, item);
      reader.done();
      out.push_back(std::move(item));
    }
  }

  /// Reject any key no getter consumed.
  void done() const {
    for (const auto& [k, v] : *object_) {
      (void)v;
      if (!consumed_.contains(k)) fail(k, "unknown key");
    }
  }

 private:
  std::string child_path(const std::string& key) const {
    return path_ + "." + key;
  }

  [[noreturn]] void fail(const std::string& key, const std::string& message) const {
    fail_at(file_, child_path(key), message);
  }

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : *object_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Consume `key`; nullptr when absent.
  const Json* take(const std::string& key) {
    consumed_.insert(key);
    return find(key);
  }

  /// The one suffix spelling of `key` present (the first, native, one when
  /// none is), remembered for check().
  const std::string& spelling(const std::string& key,
                              std::initializer_list<const char*> suffixes,
                              const std::string& ambiguous) {
    std::string spelled = key + *suffixes.begin();
    int given = 0;
    for (const char* suffix : suffixes) {
      if (!has(key + suffix)) continue;
      if (++given > 1) {
        fail(key + *suffixes.begin(), ambiguous + " for '" + key + "'");
      }
      spelled = key + suffix;
    }
    return spelled_[key] = std::move(spelled);
  }

  template <typename F>
  void resolve(const std::string& key, F&& lookup) const {
    try {
      lookup();
    } catch (const std::invalid_argument& err) {
      fail(key, err.what());
    }
  }

  const Json::Object* object_ = nullptr;
  const std::string& file_;
  std::string path_;
  std::set<std::string> consumed_;
  std::map<std::string, std::string> spelled_;
};

/// Emits every declared field in declaration order and native spelling,
/// skipping fields under a false emit_if(). Checks are the reader's.
class ObjectWriter {
 public:
  static constexpr bool kReads = false;

  static bool emit_if(bool keep) { return keep; }
  static bool has(const std::string&) { return false; }
  static void check(bool, const std::string&, const std::string&) {}

  template <std::integral T>
  void count(const std::string& key, T v, std::int64_t = 0) {
    if constexpr (std::is_signed_v<T>) {
      out.set(key, Json{static_cast<std::int64_t>(v)});
    } else {
      out.set(key, Json{static_cast<std::uint64_t>(v)});
    }
  }
  void number(const std::string& key, double v, Range = Range::kAny) {
    out.set(key, Json{v});
  }
  void flag(const std::string& key, bool v) { out.set(key, Json{v}); }
  void text(const std::string& key, const std::string& v) { out.set(key, Json{v}); }

  /// Unregistered names throw std::invalid_argument: the document would
  /// not parse back.
  template <typename V>
  void name(const std::string& key, const std::string& v, const Registry<V>& registry) {
    registry.at(v);
    text(key, v);
  }
  template <typename T, typename ToName, typename FromName>
  void name(const std::string& key, const T& v, ToName&& to_name, FromName&&) {
    text(key, to_name(v));
  }

  void time(const std::string& key, common::SimTime t) {
    out.set(key + "_ns", Json{static_cast<std::int64_t>(t)});
  }
  void rate(const std::string& key, common::Rate r) {
    out.set(key + "_bytes_per_sec", Json{r.as_bytes_per_second()});
  }

  template <typename T>
  void object(const std::string& key, const T& v) {
    out.set(key, emit(v));
  }
  template <typename T>
  void array(const std::string& key, const std::vector<T>& v) {
    Json list{Json::Array{}};
    for (const T& element : v) list.push_back(emit(element));
    out.set(key, std::move(list));
  }

  Json out{Json::Object{}};

 private:
  template <typename T>
  static Json emit(const T& v) {
    ObjectWriter writer;
    if constexpr (std::is_invocable_v<const T&, ObjectWriter&>) {
      v(writer);
    } else {
      fields(writer, v);
    }
    return std::move(writer.out);
  }
};

// --- field declarations ------------------------------------------------------
//
// One line per field, in document order. `S` is const under the writer.

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <typename Io, Is<PodSpec> S>
void fields(Io& io, S& p) {
  io.count("pods", p.pods, 1);
  io.count("racks_per_pod", p.racks_per_pod, 1);
  io.count("hosts_per_rack", p.hosts_per_rack, 1);
  io.number("oversubscription", p.oversubscription, Range::kPositive);
  io.text("partition", p.partition);
  io.check(net::parse_partition_policy(p.partition).has_value(), "partition",
           "unknown partition policy '" + p.partition +
               "' (known: " + net::known_partition_policies() + ")");
  io.count("stripe_width", p.stripe_width, 1);
  io.rate("host_rate", p.host_rate);
  io.check(!p.host_rate.is_zero(), "host_rate", "must be > 0");
  // Zero uplink rates mean "derive from oversubscription".
  io.rate("rack_uplink_rate", p.rack_uplink_rate);
  io.rate("spine_uplink_rate", p.spine_uplink_rate);
  io.time("host_link_delay", p.host_link_delay);
  io.time("rack_uplink_delay", p.rack_uplink_delay);
  io.time("spine_uplink_delay", p.spine_uplink_delay);
  // Uplinks cross shard boundaries under every non-trivial partition; their
  // propagation delay bounds the conservative lookahead, so zero is invalid.
  const std::string lookahead =
      "must be >= 1 under partition '" + p.partition +
      "' (cross-shard delay bounds the conservative lookahead)";
  const bool cut = p.partition != "none";
  io.check(!cut || p.rack_uplink_delay >= 1, "rack_uplink_delay", lookahead);
  io.check(!cut || p.spine_uplink_delay >= 1, "spine_uplink_delay", lookahead);
}

template <typename Io, Is<TopologySpec> S>
void fields(Io& io, S& t) {
  // "kind" and "pod" appear only for the pod family, keeping every star
  // manifest and preset dump byte-stable.
  if (io.emit_if(t.kind != "star")) io.text("kind", t.kind);
  io.check(t.kind == "star" || t.kind == "pod", "kind",
           "unknown topology kind '" + t.kind + "' (known: pod, star)");
  io.check(t.kind == "pod" || !io.has("pod"), "pod",
           "payload does not match kind '" + t.kind + "'");
  io.count("initiators", t.initiators, 1);
  io.count("targets", t.targets, 1);
  io.count("devices_per_target", t.devices_per_target, 1);
  io.rate("link_rate", t.link_rate);
  io.check(!t.link_rate.is_zero(), "link_rate", "must be > 0");
  io.time("link_delay", t.link_delay);
  if (io.emit_if(t.kind == "pod")) io.object("pod", t.pod);
}

template <typename Io, Is<net::EcnConfig> S>
void fields(Io& io, S& e) {
  io.flag("enabled", e.enabled);
  io.count("kmin_bytes", e.kmin_bytes);
  io.count("kmax_bytes", e.kmax_bytes);
  io.number("pmax", e.pmax, Range::kUnitInterval);
  io.check(e.kmin_bytes <= e.kmax_bytes, "kmin_bytes", "must be <= kmax_bytes");
}

template <typename Io, Is<net::PfcConfig> S>
void fields(Io& io, S& p) {
  io.flag("enabled", p.enabled);
  io.count("xoff_bytes", p.xoff_bytes);
  io.count("xon_bytes", p.xon_bytes);
  io.check(p.xon_bytes <= p.xoff_bytes, "xon_bytes", "must be <= xoff_bytes");
}

template <typename Io, Is<net::DcqcnParams> S>
void fields(Io& io, S& d) {
  io.flag("enabled", d.enabled);
  io.number("g", d.g, Range::kUnitInterval);
  io.time("alpha_timer", d.alpha_timer);
  // A recovering controller re-arms its alpha timer every alpha_timer, so a
  // zero period re-arms it at the same instant for ever. A zero rate timer
  // is allowed: each tick raises the rate, so recovery ends at line rate.
  io.check(d.alpha_timer > 0, "alpha_timer", "must be > 0 (got 0)");
  io.time("rate_timer", d.rate_timer);
  io.count("byte_counter", d.byte_counter, 1);
  io.count("fast_recovery_stages", d.fast_recovery_stages, 1);
  io.rate("rate_ai", d.rate_ai);
  io.rate("rate_hai", d.rate_hai);
  io.rate("min_rate", d.min_rate);
  io.time("cnp_interval", d.cnp_interval);
}

template <typename Io, Is<net::DctcpConfig> S>
void fields(Io& io, S& d) {
  io.number("g", d.g, Range::kUnitInterval);
  io.time("observation_window", d.observation_window);
  io.rate("additive_increase", d.additive_increase);
  io.rate("min_rate", d.min_rate);
}

template <typename Io, Is<net::SwiftParams> S>
void fields(Io& io, S& s) {
  io.time("target_delay", s.target_delay);
  io.rate("additive_increase", s.additive_increase);
  io.number("beta", s.beta, Range::kUnitInterval);
  io.number("max_mdf", s.max_mdf, Range::kUnitInterval);
  io.rate("min_rate", s.min_rate);
  io.time("min_decrease_gap", s.min_decrease_gap);
}

template <typename Io, Is<net::CubicParams> S>
void fields(Io& io, S& c) {
  io.number("beta", c.beta, Range::kUnitInterval);
  io.number("c_mbps_per_s3", c.c_mbps_per_s3, Range::kPositive);
  io.time("growth_interval", c.growth_interval);
  io.time("post_cut_holdoff", c.post_cut_holdoff);
  io.rate("min_rate", c.min_rate);
}

int cc_by_name(const std::string& name) {
  return cc_registry().at(name);
}

template <typename Io, Is<net::NetConfig> S>
void fields(Io& io, S& n) {
  io.count("mtu_bytes", n.mtu_bytes, 1);
  io.name("congestion_control", n.cc_algorithm, cc_name, cc_by_name);
  io.object("ecn", n.ecn);
  io.object("pfc", n.pfc);
  io.object("dcqcn", n.dcqcn);
  io.object("dctcp", n.dctcp);
  io.object("swift", n.swift);
  io.object("cubic", n.cubic);
}

template <typename Io, Is<ssd::SsdConfig> S>
void fields(Io& io, S& s) {
  if constexpr (Io::kReads) {
    // An optional preset base the fields below override; never written.
    if (io.has("preset")) {
      std::string preset;
      io.name("preset", preset, ssd_registry());
      s = ssd_registry().at(preset)();
    }
  }
  io.text("name", s.name);
  io.count("queue_depth", s.queue_depth, 1);
  io.count("write_cache_bytes", s.write_cache_bytes);
  io.count("cmt_bytes", s.cmt_bytes, 1);
  io.count("page_bytes", s.page_bytes, 1);
  io.time("read_latency", s.read_latency);
  io.time("write_latency", s.write_latency);
  io.count("channels", s.channels, 1);
  io.count("chips_per_channel", s.chips_per_channel, 1);
  io.rate("channel_bandwidth", s.channel_bandwidth);
  io.rate("dram_bandwidth", s.dram_bandwidth);
  io.count("capacity_bytes", s.capacity_bytes, 1);
  io.count("mapping_entry_bytes", s.mapping_entry_bytes, 1);
  io.time("cmt_miss_penalty", s.cmt_miss_penalty);
  io.time("command_overhead", s.command_overhead);
  io.number("cache_ack_watermark", s.cache_ack_watermark, Range::kUnitInterval);
  io.count("drain_streams", s.drain_streams);
  io.number("admission_window_ops", s.admission_window_ops, Range::kPositive);
  io.flag("enable_gc", s.enable_gc);
  io.number("gc_overprovision", s.gc_overprovision, Range::kUnitInterval);
  io.count("gc_pages_per_block", s.gc_pages_per_block, 1);
  io.time("erase_latency", s.erase_latency);
}

template <typename Io, Is<workload::StreamParams> S>
void fields(Io& io, S& s) {
  io.number("mean_iat_us", s.mean_iat_us, Range::kPositive);
  io.number("mean_size_bytes", s.mean_size_bytes, Range::kPositive);
  io.count("count", s.count);
}

template <typename Io, Is<workload::SyntheticStreamParams> S>
void fields(Io& io, S& s) {
  io.number("mean_iat_us", s.mean_iat_us, Range::kPositive);
  io.number("iat_scv", s.iat_scv);
  io.check(s.iat_scv >= 1.0, "iat_scv", "must be >= 1 (1 = Poisson)");
  io.number("mean_size_bytes", s.mean_size_bytes, Range::kPositive);
  io.number("size_scv", s.size_scv, Range::kNonNegative);
  io.count("count", s.count);
}

/// The address-space and size-bounds fields micro and synthetic share.
template <typename Io, typename S>
void size_fields(Io& io, S& m) {
  io.count("lba_space_bytes", m.lba_space_bytes, 1);
  io.count("align_bytes", m.align_bytes, 1);
  io.count("min_size_bytes", m.min_size_bytes, 1);
  io.count("max_size_bytes", m.max_size_bytes, 1);
  io.check(m.min_size_bytes <= m.max_size_bytes, "min_size_bytes",
           "must be <= max_size_bytes");
}

template <typename Io, Is<workload::MicroParams> S>
void fields(Io& io, S& m) {
  io.object("read", m.read);
  io.object("write", m.write);
  size_fields(io, m);
  io.number("zipf_theta", m.zipf_theta, Range::kNonNegative);
}

template <typename Io, Is<workload::SyntheticParams> S>
void fields(Io& io, S& m) {
  io.object("read", m.read);
  io.object("write", m.write);
  size_fields(io, m);
}

template <typename Io, Is<WorkloadSpec> S>
void fields(Io& io, S& w) {
  io.name("kind", w.kind, workload_registry());
  io.count("seed_stride", w.seed_stride);
  // Only the payload matching the kind may appear: a stray payload for
  // another kind would be silently dead configuration.
  for (const char* payload : {"micro", "synthetic", "trace-file"}) {
    io.check(payload == w.kind || !io.has(payload), payload,
             "payload does not match kind '" + w.kind + "'");
  }
  if (io.emit_if(w.kind == "micro")) io.object("micro", w.micro);
  if (io.emit_if(w.kind == "synthetic")) io.object("synthetic", w.synthetic);
  if (io.emit_if(w.kind == "trace-file")) {
    io.object("trace-file", [&](auto& t) {
      t.text("path", w.trace_path);
      t.check(!w.trace_path.empty(), "path", "must not be empty");
    });
  }
}

template <typename Io, Is<InitiatorSpec> S>
void fields(Io& io, S& i) {
  if (io.emit_if(!i.cc.empty())) io.text("cc", i.cc);
  io.check(i.cc.empty() || cc_registry().find(i.cc) != nullptr, "cc",
           "unknown congestion controller '" + i.cc +
               "' (known: " + cc_registry().known_list() + ")");
}

template <typename Io, Is<core::SrcParams> S>
void fields(Io& io, S& p) {
  io.number("tau", p.tau);
  io.check(p.tau > 0.0 && p.tau < 1.0, "tau", "must be in (0, 1)");
  io.count("max_weight_ratio", p.max_weight_ratio, 1);
  io.time("min_adjust_interval", p.min_adjust_interval);
  io.time("prediction_window", p.prediction_window);
  io.check(p.prediction_window > 0, "prediction_window", "must be > 0");
  io.time("staleness_window", p.staleness_window);
  io.number("max_sane_throughput", p.max_sane_throughput, Range::kPositive);
}

template <typename Io, Is<TpmSpec> S>
void fields(Io& io, S& t) {
  io.name("source", t.source, tpm_registry());
  if (io.emit_if(!t.path.empty())) io.text("path", t.path);
  io.check(t.source != "file" || !t.path.empty(), "path",
           "required when source is \"file\"");
  io.count("train_seed", t.train_seed);
}

template <typename Io, Is<SrcSpec> S>
void fields(Io& io, S& s) {
  io.flag("enabled", s.enabled);
  io.object("params", s.params);
  io.object("tpm", s.tpm);
}

template <typename Io, Is<fabric::RetryPolicy> S>
void fields(Io& io, S& r) {
  io.flag("enabled", r.enabled);
  io.time("base_timeout", r.base_timeout);
  io.number("backoff_factor", r.backoff_factor);
  io.check(r.backoff_factor >= 1.0, "backoff_factor", "must be >= 1");
  io.time("max_timeout", r.max_timeout);
  io.check(!r.enabled || (r.base_timeout > 0 && r.base_timeout <= r.max_timeout),
           "base_timeout", "enabled retry needs 0 < base_timeout <= max_timeout");
  io.count("max_retries", r.max_retries);
}

const char* const kBadWindow = "fault window must have start <= end";

template <typename Io, Is<fault::PacketDropFault> S>
void fields(Io& io, S& f) {
  io.count("node", f.node);
  io.count("port", f.port, -1);  // -1 = every port
  io.time("start", f.start);
  io.time("end", f.end);
  io.check(f.start <= f.end, "start", kBadWindow);
  io.number("probability", f.probability, Range::kUnitInterval);
}

template <typename Io, Is<fault::LinkDownFault> S>
void fields(Io& io, S& f) {
  io.count("node", f.node);
  io.count("port", f.port);
  io.time("down_at", f.down_at);
  io.time("up_at", f.up_at);
  io.check(f.down_at <= f.up_at, "down_at", kBadWindow);
}

template <typename Io, Is<fault::DeviceLatencyFault> S>
void fields(Io& io, S& f) {
  io.count("target", f.target);
  io.count("device", f.device);
  io.time("start", f.start);
  io.time("end", f.end);
  io.check(f.start <= f.end, "start", kBadWindow);
  io.number("scale", f.scale, Range::kPositive);
}

template <typename Io, Is<fault::DeviceOutageFault> S>
void fields(Io& io, S& f) {
  io.count("target", f.target);
  io.count("device", f.device);
  io.time("offline_at", f.offline_at);
  io.time("online_at", f.online_at);
  io.check(f.offline_at <= f.online_at, "offline_at", kBadWindow);
}

template <typename Io, Is<fault::TransientErrorFault> S>
void fields(Io& io, S& f) {
  io.count("target", f.target);
  io.count("device", f.device);
  io.time("start", f.start);
  io.time("end", f.end);
  io.check(f.start <= f.end, "start", kBadWindow);
  io.number("probability", f.probability, Range::kUnitInterval);
}

const char* tpm_fault_kind_name(fault::TpmFaultKind kind) {
  switch (kind) {
    case fault::TpmFaultKind::kNan: return "nan";
    case fault::TpmFaultKind::kInf: return "inf";
    case fault::TpmFaultKind::kNegative: return "negative";
    case fault::TpmFaultKind::kHuge: return "huge";
  }
  return "nan";
}

fault::TpmFaultKind tpm_fault_kind(const std::string& name) {
  for (const auto kind : {fault::TpmFaultKind::kNan, fault::TpmFaultKind::kInf,
                          fault::TpmFaultKind::kNegative, fault::TpmFaultKind::kHuge}) {
    if (name == tpm_fault_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown tpm fault kind '" + name +
                              "' (known: nan, inf, negative, huge)");
}

template <typename Io, Is<fault::TpmFault> S>
void fields(Io& io, S& f) {
  io.count("controller", f.controller);
  io.time("start", f.start);
  io.time("end", f.end);
  io.check(f.start <= f.end, "start", kBadWindow);
  io.name("kind", f.kind, tpm_fault_kind_name, tpm_fault_kind);
}

template <typename Io, Is<fault::SignalLossFault> S>
void fields(Io& io, S& f) {
  io.count("target", f.target);
  io.time("start", f.start);
  io.time("end", f.end);
  io.check(f.start <= f.end, "start", kBadWindow);
}

template <typename Io, Is<fault::FaultPlan> S>
void fields(Io& io, S& p) {
  io.count("seed", p.seed);
  if (io.emit_if(!p.packet_drops.empty())) io.array("packet_drops", p.packet_drops);
  if (io.emit_if(!p.link_downs.empty())) io.array("link_downs", p.link_downs);
  if (io.emit_if(!p.latency_spikes.empty())) {
    io.array("latency_spikes", p.latency_spikes);
  }
  if (io.emit_if(!p.outages.empty())) io.array("outages", p.outages);
  if (io.emit_if(!p.transient_errors.empty())) {
    io.array("transient_errors", p.transient_errors);
  }
  if (io.emit_if(!p.tpm_faults.empty())) io.array("tpm_faults", p.tpm_faults);
  if (io.emit_if(!p.signal_losses.empty())) io.array("signal_losses", p.signal_losses);
}

template <typename Io, Is<VerifySpec> S>
void fields(Io& io, S& v) {
  io.flag("enabled", v.enabled);
  io.flag("io_accounting", v.io_accounting);
  io.flag("driver_conservation", v.driver_conservation);
  io.flag("ssq_tokens", v.ssq_tokens);
  io.flag("retry_bound", v.retry_bound);
  io.flag("overlap_order", v.overlap_order);
  io.flag("monotone_time", v.monotone_time);
  io.flag("liveness", v.liveness);
  io.time("poll_interval", v.poll_interval);
  io.check(v.poll_interval > 0, "poll_interval", "must be > 0");
  io.time("liveness_grace", v.liveness_grace);
  io.count("max_violations", v.max_violations, 1);
}

std::string one_or_per_initiator(std::size_t initiators, std::size_t entries) {
  return "need exactly 1 entry (shared) or one per initiator (" +
         std::to_string(initiators) + "), got " + std::to_string(entries);
}

template <typename Io, Is<ScenarioSpec> S>
void fields(Io& io, S& s) {
  io.text("name", s.name);
  io.check(!s.name.empty(), "name", "must not be empty");
  if (io.emit_if(!s.description.empty())) io.text("description", s.description);
  io.count("seed", s.seed);
  io.time("max_time", s.max_time);
  io.check(s.max_time > 0, "max_time", "must be > 0");
  // lanes == 0 (the one-shard star plan) is omitted, keeping dumps
  // byte-stable.
  if (io.emit_if(s.lanes != 0)) io.count("lanes", s.lanes);
  io.object("topology", s.topology);
  io.object("net", s.net);
  io.object("ssd", s.ssd);
  io.name("driver", s.driver, driver_registry());
  io.array("workloads", s.workloads);
  io.check(!s.workloads.empty(), "workloads", "at least one workload is required");
  io.check(s.workloads.size() == 1 || s.workloads.size() == s.topology.initiators,
           "workloads",
           one_or_per_initiator(s.topology.initiators, s.workloads.size()));
  if (io.emit_if(!s.initiators.empty())) io.array("initiators", s.initiators);
  io.check(s.initiators.size() <= 1 || s.initiators.size() == s.topology.initiators,
           "initiators",
           one_or_per_initiator(s.topology.initiators, s.initiators.size()));
  io.object("src", s.src);
  io.object("retry", s.retry);
  if (io.emit_if(!s.faults.empty())) io.object("faults", s.faults);
  if (io.emit_if(s.verify != VerifySpec{})) io.object("verify", s.verify);
}

// --- cross-block validation --------------------------------------------------

// Cross-field validation for pod-kind scenarios, after every block parsed.
// Errors carry `$.topology...` / `$.lanes` locations so a bad grammar fails
// here with a file:path diagnostic instead of deep inside the pod runner.
void validate_pod(const ScenarioSpec& spec, const std::string& file) {
  if (spec.topology.kind != "pod") {
    // The star lane engine has exactly two shards (hosts | hub switch);
    // more lanes than shards would be silently idle threads.
    if (spec.lanes > 2) {
      fail_at(file, "$.lanes",
              "star scenarios run at most 2 lanes (hosts | hub switch), got " +
                  std::to_string(spec.lanes));
    }
    // With lanes, every host link crosses the hosts | hub cut, and a
    // cross-shard delay bounds the conservative lookahead.
    if (spec.lanes > 0 && spec.topology.link_delay < 1) {
      fail_at(file, "$.topology.link_delay_ns",
              "must be >= 1 when lanes >= 1 (every host link crosses the "
              "hosts | hub cut, and its delay bounds the conservative "
              "lookahead), got " + std::to_string(spec.topology.link_delay));
    }
    return;
  }
  const PodSpec& pod = spec.topology.pod;
  const std::size_t hosts =
      pod.pods * pod.racks_per_pod * pod.hosts_per_rack;
  if (spec.topology.initiators + spec.topology.targets > hosts) {
    fail_at(file, "$.topology.initiators",
            std::to_string(spec.topology.initiators) + " initiators + " +
                std::to_string(spec.topology.targets) +
                " targets exceed the grammar's " + std::to_string(hosts) +
                " hosts (" + std::to_string(pod.pods) + " pods x " +
                std::to_string(pod.racks_per_pod) + " racks x " +
                std::to_string(pod.hosts_per_rack) + " hosts)");
  }
  if (pod.stripe_width > spec.topology.targets) {
    fail_at(file, "$.topology.pod.stripe_width",
            "stripe_width " + std::to_string(pod.stripe_width) +
                " exceeds the " + std::to_string(spec.topology.targets) +
                " targets");
  }
  const net::PodShardPlan plan{pod.pods, pod.racks_per_pod,
                               *net::parse_partition_policy(pod.partition)};
  if (spec.lanes > plan.shard_count()) {
    fail_at(file, "$.lanes",
            "lane count " + std::to_string(spec.lanes) + " exceeds the " +
                std::to_string(plan.shard_count()) + " shards partition '" +
                pod.partition + "' yields for this grammar");
  }
  if (spec.topology.devices_per_target != 1) {
    fail_at(file, "$.topology.devices_per_target",
            "pod scenarios model targets as hosts (no SSD stack); "
            "devices_per_target must stay 1");
  }
  if (spec.driver != "auto") {
    fail_at(file, "$.driver",
            "pod scenarios have no NVMe driver; leave driver as \"auto\"");
  }
  if (spec.src.enabled) {
    fail_at(file, "$.src.enabled",
            "pod scenarios do not support SRC (no target-side controllers)");
  }
  if (spec.retry.enabled) {
    fail_at(file, "$.retry.enabled",
            "pod scenarios do not support initiator retry policies");
  }
  if (!spec.faults.empty()) {
    fail_at(file, "$.faults",
            "pod scenarios do not support fault plans");
  }
  if (spec.verify.enabled) {
    fail_at(file, "$.verify.enabled",
            "pod scenarios do not support runtime invariant verification");
  }
}

// Cross-validate every fault entry against the topology and src blocks, so
// a bad index fails at parse time with a `$.faults...` location instead of
// surfacing as std::out_of_range when the injector arms mid-build.
void validate_faults(const ScenarioSpec& spec, const std::string& file) {
  // Pod scenarios reject fault plans wholesale (validate_pod), and the
  // star-shape node math below would not apply to them anyway.
  if (spec.topology.kind == "pod") return;
  const std::size_t hosts = spec.topology.initiators + spec.topology.targets;
  const std::size_t node_count = 1 + hosts;  // node 0 is the hub switch
  const auto path = [](const char* family, std::size_t i, const char* field) {
    return std::string("$.faults.") + family + "[" + std::to_string(i) + "]." +
           field;
  };
  const auto check_node = [&](const char* family, std::size_t i,
                              net::NodeId node) {
    if (static_cast<std::size_t>(node) >= node_count) {
      fail_at(file, path(family, i, "node"),
              "node " + std::to_string(node) + " out of range: the star " +
                  "topology has " + std::to_string(node_count) +
                  " nodes (0 = hub switch, 1.." + std::to_string(hosts) +
                  " = hosts)");
    }
  };
  const auto check_port = [&](const char* family, std::size_t i,
                              net::NodeId node, std::int64_t port) {
    const std::size_t limit = node == 0 ? hosts : 1;  // hosts have one port
    if (port >= 0 && static_cast<std::size_t>(port) >= limit) {
      fail_at(file, path(family, i, "port"),
              "port " + std::to_string(port) + " out of range: node " +
                  std::to_string(node) + " has " + std::to_string(limit) +
                  (limit == 1 ? " port" : " ports"));
    }
  };
  const auto check_device = [&](const char* family, std::size_t i,
                                std::size_t target, std::size_t device) {
    if (target >= spec.topology.targets) {
      fail_at(file, path(family, i, "target"),
              "target " + std::to_string(target) + " out of range: the " +
                  "topology has " + std::to_string(spec.topology.targets) +
                  " targets");
    }
    if (device >= spec.topology.devices_per_target) {
      fail_at(file, path(family, i, "device"),
              "device " + std::to_string(device) + " out of range: each " +
                  "target has " +
                  std::to_string(spec.topology.devices_per_target) +
                  " devices");
    }
  };
  for (std::size_t i = 0; i < spec.faults.packet_drops.size(); ++i) {
    const fault::PacketDropFault& f = spec.faults.packet_drops[i];
    check_node("packet_drops", i, f.node);
    check_port("packet_drops", i, f.node, f.port);
  }
  for (std::size_t i = 0; i < spec.faults.link_downs.size(); ++i) {
    const fault::LinkDownFault& f = spec.faults.link_downs[i];
    check_node("link_downs", i, f.node);
    check_port("link_downs", i, f.node,
               static_cast<std::int64_t>(f.port));
  }
  for (std::size_t i = 0; i < spec.faults.latency_spikes.size(); ++i) {
    const fault::DeviceLatencyFault& f = spec.faults.latency_spikes[i];
    check_device("latency_spikes", i, f.target, f.device);
  }
  for (std::size_t i = 0; i < spec.faults.outages.size(); ++i) {
    const fault::DeviceOutageFault& f = spec.faults.outages[i];
    check_device("outages", i, f.target, f.device);
  }
  for (std::size_t i = 0; i < spec.faults.transient_errors.size(); ++i) {
    const fault::TransientErrorFault& f = spec.faults.transient_errors[i];
    check_device("transient_errors", i, f.target, f.device);
  }
  for (std::size_t i = 0; i < spec.faults.tpm_faults.size(); ++i) {
    const fault::TpmFault& f = spec.faults.tpm_faults[i];
    if (!spec.src.enabled) {
      fail_at(file, path("tpm_faults", i, "controller"),
              "tpm faults need src.enabled (a DCQCN-only run has no "
              "controllers to corrupt)");
    }
    if (f.controller >= spec.topology.targets) {
      fail_at(file, path("tpm_faults", i, "controller"),
              "controller " + std::to_string(f.controller) +
                  " out of range: one controller per target, " +
                  std::to_string(spec.topology.targets) + " targets");
    }
  }
  for (std::size_t i = 0; i < spec.faults.signal_losses.size(); ++i) {
    const fault::SignalLossFault& f = spec.faults.signal_losses[i];
    if (f.target >= spec.topology.targets) {
      fail_at(file, path("signal_losses", i, "target"),
              "target " + std::to_string(f.target) + " out of range: the " +
                  "topology has " + std::to_string(spec.topology.targets) +
                  " targets");
    }
  }
}

}  // namespace

Json to_json(const ScenarioSpec& spec) {
  ObjectWriter writer;
  writer.text("schema", std::string(kScenarioSchema));
  fields(writer, spec);
  return std::move(writer.out);
}

std::string to_json_text(const ScenarioSpec& spec) {
  return to_json(spec).dump(2) + "\n";
}

ScenarioSpec from_json(const obs::Json& doc, const std::string& file) {
  ObjectReader reader(doc, file, "$");
  std::string schema;
  reader.text("schema", schema);
  const std::string want = "(want \"" + std::string(kScenarioSchema) + "\")";
  reader.check(schema == kScenarioSchema, "schema",
               schema.empty() ? "missing " + want
                              : "unsupported schema \"" + schema + "\" " + want);
  ScenarioSpec spec;
  fields(reader, spec);
  validate_faults(spec, file);
  validate_pod(spec, file);
  reader.done();
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text, const std::string& file) {
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(file + ": " + err.what());
  }
  return from_json(doc, file);
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(path + ": cannot open scenario file");
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse_scenario(text, path);
}

}  // namespace src::scenario
