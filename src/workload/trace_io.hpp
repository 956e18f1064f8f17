// CSV trace import/export, so real block traces (e.g. SNIA IOTTA exports)
// can be replayed against the simulator and generated traces can be
// inspected with standard tools.
//
// Format: one request per line, `timestamp_us,op,lba,bytes` where `op` is
// R/W (case-insensitive; `read`/`write` also accepted). Lines starting
// with '#' and a leading header line are skipped. Timestamps are offsets
// in microseconds from the start of the trace.
#pragma once

#include <array>
#include <iosfwd>
#include <string>

#include "workload/trace.hpp"

namespace src::workload {

/// Parse a CSV trace from a stream. Throws std::runtime_error with a
/// `<source>:<line>: <what>` message on malformed input. The result is
/// sorted by arrival time.
Trace read_csv_trace(std::istream& in, const std::string& source = "trace csv");

/// Parse a CSV trace from a file. Throws on I/O or parse errors, naming
/// `path` in the message.
Trace read_csv_trace_file(const std::string& path);

/// Serialize a trace (with a header line).
void write_csv_trace(std::ostream& out, const Trace& trace);
void write_csv_trace_file(const std::string& path, const Trace& trace);

}  // namespace src::workload
