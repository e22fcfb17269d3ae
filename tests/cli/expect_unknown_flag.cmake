# Runs COMMAND with the space-separated ARGS and requires the
# front-end's unknown-flag exit: code 2 and "unknown flag" on stderr.
# Both streams are echoed so the calling test's FAIL_REGULAR_EXPRESSION
# can also check that no result lines were printed.
#   cmake -DCOMMAND=<exe> "-DARGS=<args>" -P expect_unknown_flag.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${_args}
    RESULT_VARIABLE _rc
    OUTPUT_VARIABLE _out
    ERROR_VARIABLE _err)
message("stdout:\n${_out}\nstderr:\n${_err}")
if(NOT _rc STREQUAL "2")
    message(FATAL_ERROR "expected exit code 2, got '${_rc}'")
endif()
if(NOT _err MATCHES "unknown flag")
    message(FATAL_ERROR "expected 'unknown flag' on stderr")
endif()
