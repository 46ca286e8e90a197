# Runs PROGRAM with ARGS (space-separated) under ENV (one NAME=VALUE, or
# empty) and requires exit code EXIT and a match for the regex STDERR on
# stderr. WILL_FAIL would also pass on a crash; this does not.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${PROGRAM} ${args}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got '${code}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${stderr}")
endif()
