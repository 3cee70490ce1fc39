# run_bench(<label> <out file or ""> <command> [args...]): run one bench
# with stdout discarded; fail the ctest script unless it exits 0 and
# writes <out file> ("" skips that check). <label> names it in errors.
function(run_bench label out)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} exited with ${rc}")
  endif()
  if(NOT out STREQUAL "" AND NOT EXISTS "${out}")
    message(FATAL_ERROR "${label} did not write '${out}'")
  endif()
endfunction()
