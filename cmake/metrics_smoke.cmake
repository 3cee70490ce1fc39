# Smoke test: run one bench with --metrics-out and validate the emitted
# bench_result.json against the checked-in schema.
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<bench exe> -DVALIDATOR=<validator exe>
#         -DSCHEMA=<schema json> -DOUT=<artifact path> -P metrics_smoke.cmake
#
# --metrics-timing is passed so the per-stage latency histograms are part
# of the validated artifact too, not just the physics metrics.
foreach(var BENCH VALIDATOR SCHEMA OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "metrics_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/run_bench.cmake")
run_bench("bench '${BENCH}'" "${OUT}"
  "${BENCH}" "--metrics-out=${OUT}" "--metrics-timing")

execute_process(
  COMMAND "${VALIDATOR}" "${SCHEMA}" "${OUT}"
  RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "'${OUT}' failed schema validation (${validate_rc})")
endif()
