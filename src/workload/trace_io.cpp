#include "workload/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace src::workload {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string strip(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

[[noreturn]] void fail(const std::string& source, std::size_t line,
                       const std::string& what) {
  throw std::runtime_error(source + ":" + std::to_string(line) + ": " + what);
}

}  // namespace

Trace read_csv_trace(std::istream& in, const std::string& source) {
  Trace trace;
  std::string line;
  std::size_t line_number = 0;
  bool maybe_header = true;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = strip(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    std::array<std::string, 4> fields;
    std::size_t field = 0;
    std::stringstream row(trimmed);
    std::string cell;
    while (std::getline(row, cell, ',')) {
      if (field >= fields.size()) fail(source, line_number, "too many columns");
      fields[field++] = strip(cell);
    }
    if (field != fields.size()) fail(source, line_number, "expected 4 columns");

    // Tolerate one header line (first column does not start numerically).
    const char first = fields[0].empty() ? '\0' : fields[0][0];
    const bool numeric_start =
        std::isdigit(static_cast<unsigned char>(first)) || first == '-' ||
        first == '+' || first == '.';
    if (maybe_header && !numeric_start) {
      maybe_header = false;
      continue;
    }
    maybe_header = false;

    TraceRecord rec;
    try {
      rec.arrival = common::microseconds(std::stod(fields[0]));
      const std::string op = lower(fields[1]);
      if (op == "r" || op == "read") {
        rec.type = IoType::kRead;
      } else if (op == "w" || op == "write") {
        rec.type = IoType::kWrite;
      } else {
        fail(source, line_number, "unknown op '" + fields[1] + "'");
      }
      rec.lba = std::stoull(fields[2]);
      rec.bytes = static_cast<std::uint32_t>(std::stoul(fields[3]));
    } catch (const std::invalid_argument&) {
      fail(source, line_number, "malformed number");
    } catch (const std::out_of_range&) {
      fail(source, line_number, "number out of range");
    }
    if (rec.bytes == 0) fail(source, line_number, "zero-byte request");
    if (rec.arrival < 0) fail(source, line_number, "negative timestamp");
    trace.push_back(rec);
  }
  sort_by_arrival(trace);
  return trace;
}

Trace read_csv_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open trace file");
  return read_csv_trace(in, path);
}

void write_csv_trace(std::ostream& out, const Trace& trace) {
  out << "timestamp_us,op,lba,bytes\n";
  for (const TraceRecord& rec : trace) {
    out << common::to_microseconds(rec.arrival) << ','
        << (rec.type == IoType::kRead ? 'R' : 'W') << ',' << rec.lba << ','
        << rec.bytes << '\n';
  }
}

void write_csv_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path);
  write_csv_trace(out, trace);
}

}  // namespace src::workload
