# Generate a workload with pclass_gen, then classify it with
# pclass_classify --verify three ways (plain, two workers with a flow
# cache, the RVH backend). Fails on a nonzero exit or on any verdict the
# linear-search oracle disagrees with. Invoked by ctest as
#   cmake -DGEN=<pclass_gen> -DCLASSIFY=<pclass_classify> -DDIR=<dir>
#         -P check_cli.cmake
set(base ${DIR}/cli_acl1k)
execute_process(COMMAND ${GEN} acl 1000 ${base} OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pclass_gen exited with ${rc}")
endif()
foreach(flags "" "--workers;2;--cache;1024" "--alg;rvh")
  execute_process(
    COMMAND ${CLASSIFY} ${base}.rules ${base}.trace --verify ${flags}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pclass_classify --verify ${flags} exited with ${rc}:\n${out}")
  endif()
  if(NOT out MATCHES "verify: ([0-9]+)/([0-9]+) verdicts agree"
     OR NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2)
    message(FATAL_ERROR "pclass_classify --verify ${flags}: mismatches:\n${out}")
  endif()
endforeach()
