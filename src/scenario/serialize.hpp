// ScenarioSpec <-> JSON (schema "src-scenario-v1") on obs::Json.
//
// Every spec struct has one field declaration in serialize.cpp,
// `fields(io, s)`, with one line per field: key, member, kind (count,
// number, flag, text, name, time, rate, object, array) and range. Two
// visitors run it. The strict reader parses; the writer emits. Adding a
// field is one line there; DESIGN.md §11.1 has the details.
//
// The emitted document is deterministic: declaration key order, integers
// printed exactly, doubles with enough digits for a lossless round trip.
// So serialize(parse(serialize(spec))) == serialize(spec) byte-for-byte
// and manifests diff cleanly under version control.
//
// Parsing is strict: the schema tag must match, unknown keys are errors
// (they are silent typos otherwise), and every value is range-checked,
// integers up to the width of their C++ type. Errors are
// std::runtime_error with "file:$.path.to.key: message" locations that
// name the key as the manifest spelled it, e.g.
//   vdi.json:$.topology.initiators: must be >= 1 (got 0)
//
// Units: times are nanosecond integers with an `_ns` key suffix (the
// simulator's native unit; `_us`/`_ms` doubles up to 2^53 ns are accepted
// as authoring sugar), and rates are `_bytes_per_sec` doubles
// (`_gbps`/`_mbps` accepted on input). The serializer always emits the
// native form.
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "scenario/spec.hpp"

namespace src::scenario {

inline constexpr std::string_view kScenarioSchema = "src-scenario-v1";

/// Serialize a spec to a src-scenario-v1 JSON document.
obs::Json to_json(const ScenarioSpec& spec);

/// Shorthand: to_json(spec).dump(2) plus a trailing newline (manifest files
/// are text artifacts; the newline keeps POSIX tools and diffs happy).
std::string to_json_text(const ScenarioSpec& spec);

/// Rebuild a spec from a parsed document. `file` labels error messages
/// (use the manifest's path).
ScenarioSpec from_json(const obs::Json& doc, const std::string& file = "<scenario>");

/// Parse text (Json::parse + from_json). Parse errors are rewritten to
/// carry the `file` label.
ScenarioSpec parse_scenario(std::string_view text,
                            const std::string& file = "<scenario>");

/// Read and parse a manifest file; throws std::runtime_error on I/O errors.
ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace src::scenario
