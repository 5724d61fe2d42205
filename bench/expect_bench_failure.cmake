# Runs the command given after `--` and expects it to fail: a nonzero exit
# status (exactly RC when RC is set) and output containing the text EXPECT.
# Usage: cmake -DEXPECT=<text> [-DRC=<status>] -P expect_bench_failure.cmake
#              -- <program> [args...]
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_bench_failure.cmake: no command after '--'")
endif()
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${cmd}' exited 0, expected a failure naming "
                      "'${EXPECT}':\n${out}${err}")
endif()
if(DEFINED RC AND NOT rc EQUAL RC)
  message(FATAL_ERROR "'${cmd}' exited ${rc}, expected ${RC}:\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "'${cmd}' failed (${rc}) without printing "
                      "'${EXPECT}':\n${out}${err}")
endif()
