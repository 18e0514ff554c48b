# Script behind the stats_schema_rejects_malformed ctest: feed a
# malformed document to tools/check_stats_schema.py and require exit 1
# with each defect reported. Variables: VALIDATOR, PYTHON, DOC.
execute_process(COMMAND ${PYTHON} ${VALIDATOR} ${DOC}
                RESULT_VARIABLE val_rc ERROR_VARIABLE val_err)
if(NOT val_rc EQUAL 1)
    message(FATAL_ERROR "validator exited ${val_rc}, expected 1")
endif()
foreach(want "histogram counts do not sum to total"
             "counter value must be a non-negative integer")
    string(FIND "${val_err}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "validator did not report '${want}':\n"
                            "${val_err}")
    endif()
endforeach()
