# Run one paper-table bench and compare its stdout with the committed
# golden file, byte for byte. Invoked by ctest as
#   cmake -DBENCH=<executable> -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
# On a mismatch the actual output is left in OUT for diffing.
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; "
                      "actual output: ${OUT}")
endif()
