# Golden parity test: run one bench twice in two execution configurations
# and require byte-identical physics exports. Every parity ctest in
# bench/CMakeLists.txt goes through this script; the configuration pair
# is what differs:
#  - thread parity: ENV1=JMB_THREADS=1 vs ENV2=JMB_THREADS=4 (one
#    Workspace per TrialRunner worker, no shared mutable state);
#  - SIMD parity: ENV1=JMB_SIMD=scalar vs ENV2=--unset=JMB_SIMD (the
#    native leg picks the machine's best backend even when the
#    surrounding environment, e.g. a CI job matrix, pins one);
#  - stream parity: ring depth / operator-thread placement, or the
#    streaming engine vs the --batch facade loop;
#  - knob parity: an unset knob vs its documented default value.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench exe> -DSEED=<decimal seed>
#         -DOUT1=<artifact> -DOUT2=<artifact>
#         [-DENV1=<;-separated VAR=VAL or --unset=VAR>] [-DENV2=...]
#         [-DARGS1=<;-separated bench args>] [-DARGS2=...]
#         -P parity.cmake
#
# Physics-only export (no --metrics-timing): wall-clock metrics, queue
# depths and stalls legitimately vary with configuration; the physics
# and the export bytes that carry it must not.
foreach(var BENCH SEED OUT1 OUT2)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "parity.cmake: missing -D${var}=...")
  endif()
endforeach()
foreach(var ENV1 ENV2 ARGS1 ARGS2)
  if(NOT DEFINED ${var})
    set(${var} "")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/run_bench.cmake")
run_bench("bench '${BENCH}' (run 1: ${ENV1} ${ARGS1})" "${OUT1}"
  "${CMAKE_COMMAND}" -E env ${ENV1}
  "${BENCH}" "${SEED}" "--metrics-out=${OUT1}" ${ARGS1})
run_bench("bench '${BENCH}' (run 2: ${ENV2} ${ARGS2})" "${OUT2}"
  "${CMAKE_COMMAND}" -E env ${ENV2}
  "${BENCH}" "${SEED}" "--metrics-out=${OUT2}" ${ARGS2})

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT1}" "${OUT2}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "physics exports differ between run 1 (${ENV1} ${ARGS1}) and "
    "run 2 (${ENV2} ${ARGS2}): '${OUT1}' vs '${OUT2}'")
endif()
