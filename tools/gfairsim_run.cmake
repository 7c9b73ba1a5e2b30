# Runs gfairsim once with FLAGS + RUN_FLAGS (space-separated) and its decision
# log dumped to DECISIONS; with EXPECTED set, also requires that log to match
# EXPECTED byte for byte.
#
#   cmake -DGFAIRSIM=<binary> -DFLAGS="..." -DRUN_FLAGS="..."
#         -DDECISIONS=<file> [-DEXPECTED=<file>] -P gfairsim_run.cmake
separate_arguments(flags UNIX_COMMAND "${FLAGS} ${RUN_FLAGS}")
execute_process(COMMAND "${GFAIRSIM}" ${flags} --dump-decisions "${DECISIONS}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "gfairsim exited with ${status}")
endif()
if(DEFINED EXPECTED)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${DECISIONS}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "decision log ${DECISIONS} differs from ${EXPECTED}")
  endif()
endif()
