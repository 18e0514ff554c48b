# Script behind the bench_* smoke ctests: run a bench binary in a fresh
# working directory (so no bench_cache/ from another run is reused) and
# require exit 0 and a stdout line matching WANT.
# Variables: BENCH, ARGS (a ;-list), WORKDIR, WANT.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${BENCH} ${ARGS}
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BENCH} exited '${rc}', expected 0:\n${err}")
endif()
string(REGEX MATCH "(^|\n)[^\n]*${WANT}" line "${out}")
if(NOT line)
    message(FATAL_ERROR "no output line matching '${WANT}':\n${out}")
endif()
