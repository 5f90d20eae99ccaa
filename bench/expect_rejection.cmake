# Runs BENCH with ARGS (one space-separated string) and requires that it
# exits with status 1 and names EXPECT on stderr.  A crash or an abort
# reports a signal instead of a status, so it fails the check too.
#
#   cmake -DBENCH=<binary> "-DARGS=<args>" "-DEXPECT=<text>" \
#         -P expect_rejection.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT}':\n${err}")
endif()
