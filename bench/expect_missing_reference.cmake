# Runs `snim_bench --quick --filter fig10` where fig10's reference CSV
# cannot be found and expects a nonzero exit whose output names the file.
# Usage: cmake -DBENCH=<path to snim_bench> -P expect_missing_reference.cmake
execute_process(COMMAND ${BENCH} --quick --filter fig10
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "snim_bench exited 0 without its reference file:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "fig10_ground_width\\.csv")
  message(FATAL_ERROR "snim_bench failed (${rc}) without naming "
                      "fig10_ground_width.csv:\n${out}${err}")
endif()
