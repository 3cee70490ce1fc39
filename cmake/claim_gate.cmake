# Claim gate: run one bench over a seed sweep with --metrics-out and check
# the headline gauges it exports against fixed bands (tools/claim_check:
# the median over the seeds must lie inside each band).
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<bench exe> -DCHECK=<claim_check exe> -DSEEDS=<a;b;...>
#         -DOUT_PREFIX=<path prefix> -DBANDS=<NAME:LO:HI;...>
#         -P claim_gate.cmake
foreach(var BENCH CHECK SEEDS OUT_PREFIX BANDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "claim_gate.cmake: missing -D${var}=...")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/run_bench.cmake")
set(files)
foreach(seed IN LISTS SEEDS)
  set(out "${OUT_PREFIX}_s${seed}.json")
  file(REMOVE "${out}")
  run_bench("bench '${BENCH}' seed ${seed}" "${out}"
    "${BENCH}" "${seed}" "--metrics-out=${out}")
  list(APPEND files "${out}")
endforeach()

set(band_args)
foreach(band IN LISTS BANDS)
  list(APPEND band_args "--band=${band}")
endforeach()
execute_process(COMMAND "${CHECK}" ${band_args} ${files}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "claim gate failed (${rc}): see the bands above")
endif()
