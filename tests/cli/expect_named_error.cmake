# Runs COMMAND with the space-separated ARGS and requires the
# front-end's fatal-error exit: code 1 and stderr matching the regex
# EXPECT (the error naming the bad input). Both streams are echoed so
# the calling test's FAIL_REGULAR_EXPRESSION can also check that no
# result lines were printed.
#   cmake -DCOMMAND=<exe> "-DARGS=<args>" "-DEXPECT=<regex>"
#         -P expect_named_error.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${_args}
    RESULT_VARIABLE _rc
    OUTPUT_VARIABLE _out
    ERROR_VARIABLE _err)
message("stdout:\n${_out}\nstderr:\n${_err}")
if(NOT _rc STREQUAL "1")
    message(FATAL_ERROR "expected exit code 1, got '${_rc}'")
endif()
if(NOT _err MATCHES "${EXPECT}")
    message(FATAL_ERROR "expected '${EXPECT}' on stderr")
endif()
