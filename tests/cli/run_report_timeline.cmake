# The `timeline` of a `srcctl run --metrics-out` report holds the run's
# per-bin series: its congestion signals sum to the run's
# `fabric.congestion_signals` counter, its three series have one length,
# and its read series has a bin for every whole bin of `core.end_time_ms`.
#
#   cmake -DSRCCTL=<srcctl> -DMANIFEST=<manifest.json> -P run_report_timeline.cmake
execute_process(COMMAND ${SRCCTL} run ${MANIFEST} --metrics-out run_report_timeline.json
  RESULT_VARIABLE code OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "srcctl run ${MANIFEST}: exit ${code}")
endif()
file(READ run_report_timeline.json report)

string(JSON signals_len LENGTH "${report}" timeline congestion_signals)
set(signals 0)
if(signals_len GREATER 0)
  math(EXPR last "${signals_len} - 1")
  foreach(i RANGE ${last})
    string(JSON count GET "${report}" timeline congestion_signals ${i})
    math(EXPR signals "${signals} + ${count}")
  endforeach()
endif()
string(JSON counter GET "${report}" metrics counters fabric.congestion_signals)
if(NOT signals EQUAL counter)
  message(FATAL_ERROR "timeline.congestion_signals sum to ${signals}, "
    "metrics.counters.fabric.congestion_signals is ${counter}")
endif()
message(STATUS "congestion signals: ${signals}")

string(JSON bin_ns GET "${report}" timeline bin_ns)
string(JSON read_bins LENGTH "${report}" timeline read_bytes)
foreach(key write_bytes congestion_signals)
  string(JSON bins LENGTH "${report}" timeline ${key})
  if(NOT bins EQUAL read_bins)
    message(FATAL_ERROR "timeline.${key} has ${bins} bins, read_bytes ${read_bins}")
  endif()
endforeach()
string(JSON end_time_ms GET "${report}" metrics gauges core.end_time_ms)
string(REGEX REPLACE "\\..*" "" whole_ms "${end_time_ms}")
math(EXPR covered_ms "${read_bins} * ${bin_ns} / 1000000")
if(covered_ms LESS whole_ms)
  message(FATAL_ERROR "timeline.read_bytes covers ${covered_ms} ms "
    "(${read_bins} bins of ${bin_ns} ns), the run ended at ${end_time_ms} ms")
endif()
message(STATUS "read series: ${read_bins} bins, run ended at ${end_time_ms} ms")
