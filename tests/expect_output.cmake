# Run a tcpni_bench invocation that must succeed: exit status 0 and
# the expected text on stdout (an experiment's closing line).
#
# Usage:
#   cmake -DBIN=<tcpni_bench> -DARGS=<;-separated args>
#         -DEXPECT=<stdout regex> -P expect_output.cmake

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "expected exit status 0, got '${rc}'\n"
                        "--- stderr ---\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "no '${EXPECT}' on stdout\n"
                        "--- stdout ---\n${out}")
endif()
