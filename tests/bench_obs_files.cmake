# Runs a bench with --metrics-json and --trace-out and fails unless it
# exits 0 and writes both files as non-empty JSON: the metrics with at
# least one counter, the trace with at least one event, including an
# event of every name in SPANS.
#
#   cmake -DBENCH=<binary> -DOUT=<dir> "-DARGS=<flag;value;...>" \
#         ["-DSPANS=<name;...>"] -P bench_obs_files.cmake
if(NOT BENCH OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DOUT=<dir> "
                      "[-DARGS=...] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(metrics "${OUT}/metrics.json")
set(trace "${OUT}/trace.json")
file(MAKE_DIRECTORY "${OUT}")
file(REMOVE "${metrics}" "${trace}")
execute_process(
  COMMAND "${BENCH}" ${ARGS} --metrics-json "${metrics}" --trace-out "${trace}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}:\n${err}")
endif()

function(read_json path out)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${BENCH} did not write ${path}")
  endif()
  file(READ "${path}" text)
  string(STRIP "${text}" text)
  if(text STREQUAL "")
    message(FATAL_ERROR "${path} is empty")
  endif()
  string(JSON type ERROR_VARIABLE bad TYPE "${text}")
  if(bad)
    message(FATAL_ERROR "${path} is not JSON: ${bad}")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

read_json("${metrics}" m)
string(JSON counters ERROR_VARIABLE bad LENGTH "${m}" counters)
if(bad OR counters EQUAL 0)
  message(FATAL_ERROR "${metrics} has no counters")
endif()
read_json("${trace}" t)
string(JSON events ERROR_VARIABLE bad LENGTH "${t}" traceEvents)
if(bad OR events EQUAL 0)
  message(FATAL_ERROR "${trace} has no trace events")
endif()
foreach(span IN LISTS SPANS)
  string(FIND "${t}" "\"name\":\"${span}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${trace} has no ${span} span")
  endif()
endforeach()
message(STATUS "${metrics}: ${counters} counters; ${trace}: ${events} events")
