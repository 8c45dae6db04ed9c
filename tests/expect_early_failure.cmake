# Run a tcpni_bench invocation that must be rejected (an output file
# that cannot be written, an invalid argument) and require that it
# fails before doing any work: exit status 1, the expected error on
# stderr, no "measuring" progress line on stderr, and nothing on
# stdout.
#
# Usage:
#   cmake -DBIN=<tcpni_bench> -DARGS=<;-separated args>
#         [-DEXPECT=<stderr regex, default "cannot open">]
#         -P expect_early_failure.cmake

separate_arguments(ARGS)
if(NOT DEFINED EXPECT OR EXPECT STREQUAL "")
    set(EXPECT "cannot open")
endif()

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit status 1, got '${rc}'\n"
                        "--- stderr ---\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "no '${EXPECT}' error\n--- stderr ---\n${err}")
endif()
if(err MATCHES "measuring")
    message(FATAL_ERROR "work started before the output check\n"
                        "--- stderr ---\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "unexpected stdout\n--- stdout ---\n${out}")
endif()
