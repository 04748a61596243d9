# Runs RUNNER with the space-separated ARGS and fails unless it exits with
# status EXPECT:
#
#   cmake -DRUNNER=path/to/runner "-DARGS=--sites=0 --updates=1000" \
#         -DEXPECT=2 -P expect_exit.cmake
#
# An abort (e.g. an FGM_CHECK) reports a signal instead of a status, so it
# fails the comparison too.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${RUNNER} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "exit status '${status}', expected ${EXPECT}\n${out}${err}")
endif()
message(STATUS "exit status ${status}: ${err}")
