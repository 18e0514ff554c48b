# Script behind the bench_rejected_flag_exits_1 ctest: run a bench
# binary with a flag value it rejects and require a clean exit 1 (not
# std::terminate's abort) with an `Error:` line naming the bad value.
# Variables: BENCH, ARG, WANT.
execute_process(COMMAND ${BENCH} ${ARG}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${BENCH} ${ARG} exited '${rc}', expected 1:\n"
                        "${err}")
endif()
string(REGEX MATCH "(^|\n)Error: [^\n]*${WANT}" line "${err}")
if(NOT line)
    message(FATAL_ERROR "no 'Error:' line naming '${WANT}':\n${err}")
endif()
