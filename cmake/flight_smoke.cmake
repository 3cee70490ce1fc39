# Flight-recorder end-to-end smoke, two legs:
#
#  1. Fault-triggered dump: run the resilience bench under a fault plan
#     with JMB_FLIGHT_DUMP_DIR set; the quarantine path must write a
#     flight_*.json dump that validates against the trace_event schema
#     and that trace_stats can break down (i.e. it carries span events).
#  2. Explicit drain: run the streaming bench with --trace-out; the
#     trace must validate and trace_stats must find the per-stage /
#     ring-wait spans and item flows.
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DRESILIENCE=<exe> -DSTREAMING=<exe> -DVALIDATOR=<exe>
#         -DTRACE_STATS=<exe> -DSCHEMA=<trace_event schema>
#         -DFAULT_PLAN=<plan json> -DDUMP_DIR=<dir> -DTRACE_OUT=<path>
#         -P flight_smoke.cmake
foreach(var RESILIENCE STREAMING VALIDATOR TRACE_STATS SCHEMA FAULT_PLAN
            DUMP_DIR TRACE_OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "flight_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/run_bench.cmake")

function(check_trace path)
  execute_process(
    COMMAND "${VALIDATOR}" "${SCHEMA}" "${path}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${path}' failed trace_event schema validation")
  endif()
  execute_process(
    COMMAND "${TRACE_STATS}" "${path}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_stats could not analyze '${path}' (${rc})")
  endif()
endfunction()

# --- Leg 1: the quarantine path dumps a crash scene automatically.
file(REMOVE_RECURSE "${DUMP_DIR}")
run_bench("resilience bench" ""
  "${CMAKE_COMMAND}" -E env "JMB_FLIGHT_DUMP_DIR=${DUMP_DIR}"
  "${RESILIENCE}" 3 "--fault-plan=${FAULT_PLAN}")

file(GLOB dumps "${DUMP_DIR}/flight_*.json")
list(LENGTH dumps n_dumps)
if(n_dumps EQUAL 0)
  message(FATAL_ERROR
    "no flight dump in '${DUMP_DIR}': the quarantine trigger did not fire")
endif()
list(GET dumps 0 first_dump)
check_trace("${first_dump}")

# --- Leg 2: --trace-out drains the recorder after a streaming run.
run_bench("streaming bench" "${TRACE_OUT}"
  "${STREAMING}" 11 --quick "--trace-out=${TRACE_OUT}")
check_trace("${TRACE_OUT}")
