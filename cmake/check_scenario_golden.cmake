# Runs one shipped scenario serially and byte-compares its metrics JSON with
# the committed golden. Invoked by ctest:
#   cmake -DRUNNER=<scenario_runner> -DSCENARIO=<file.scn> -DGOLDEN=<file.json>
#         -DOUT=<scratch.json> -P check_scenario_golden.cmake
execute_process(
  COMMAND ${RUNNER} ${SCENARIO} --threads 1 --json ${OUT} --quiet
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario_runner exited ${rc} on ${SCENARIO}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from the committed ${GOLDEN}")
endif()
