# Run a tcpni_bench invocation whose output file cannot be written and
# require that it fails before doing any work: exit status 1, a
# "cannot open" error on stderr, no "measuring" progress line on
# stderr, and nothing on stdout.
#
# Usage:
#   cmake -DBIN=<tcpni_bench> -DARGS=<;-separated args>
#         -P expect_early_failure.cmake

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit status 1, got '${rc}'\n"
                        "--- stderr ---\n${err}")
endif()
if(NOT err MATCHES "cannot open")
    message(FATAL_ERROR "no 'cannot open' error\n--- stderr ---\n${err}")
endif()
if(err MATCHES "measuring")
    message(FATAL_ERROR "work started before the output check\n"
                        "--- stderr ---\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "unexpected stdout\n--- stdout ---\n${out}")
endif()
