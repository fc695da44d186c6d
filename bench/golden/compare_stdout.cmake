# Runs one bench binary and byte-compares its stdout with a golden file.
#
#   cmake -DBIN=<exe> -DARGS=<key=value|key=value...> -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_stdout.cmake
#
# ARGS separates the bench's arguments with '|' (a ';' would be split
# by ctest).  The run must exit 0 and print exactly the golden bytes;
# on a mismatch the actual output stays in ACTUAL and a unified diff
# is printed when `diff` is available.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
    OUTPUT_FILE ${ACTUAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${args} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${GOLDEN} ${ACTUAL}
    RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL})
    endif()
    message(FATAL_ERROR
        "stdout of ${BIN} ${args} differs from ${GOLDEN} "
        "(actual output: ${ACTUAL})")
endif()
