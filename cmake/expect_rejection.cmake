# Runs PROGRAM with ARGS (one space-separated string) and requires that it
# exits with status STATUS (default 1) and names EXPECT on stderr.  A crash
# or an abort reports a signal instead of a status, so it fails the check
# too.
#
#   cmake -DPROGRAM=<binary> "-DARGS=<args>" [-DSTATUS=<n>] \
#         "-DEXPECT=<text>" -P expect_rejection.cmake
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "expected exit status ${STATUS}, got '${status}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT}':\n${err}")
endif()
