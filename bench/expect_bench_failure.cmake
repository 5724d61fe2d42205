# Runs `snim_bench --quick --filter fig10` and expects a nonzero exit whose
# output contains the text EXPECT.
# Usage: cmake -DBENCH=<path to snim_bench> -DEXPECT=<text> -P expect_bench_failure.cmake
execute_process(COMMAND ${BENCH} --quick --filter fig10
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "snim_bench exited 0, expected a failure naming "
                      "'${EXPECT}':\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "snim_bench failed (${rc}) without printing "
                      "'${EXPECT}':\n${out}${err}")
endif()
