# Requires scale_ladder to refuse a missing --campaign and every malformed
# numeric flag value with exit status 2 (a usage error). Every case caps
# the ladder below its smallest rung should the bad value be accepted, so a
# binary that lets one through skips every rung instead of climbing the
# ladder. Invoked by ctest:
#   cmake -DLADDER=<scale_ladder> -DCAMPAIGN=<scale_ladder.cmp>
#         -DOUT=<scratch.json> -P check_scale_ladder_flags.cmake
set(cases
  "--max-nodes|0"
  "--campaign|${CAMPAIGN}|--max-nodes|abc"
  "--campaign|${CAMPAIGN}|--max-nodes|100x"
  "--campaign|${CAMPAIGN}|--max-nodes|0|--trial-threads|2x"
  "--campaign|${CAMPAIGN}|--max-nodes|0|--trial-threads|-1"
  "--campaign|${CAMPAIGN}|--max-nodes|0|--trial-threads|99999999999")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND ${LADDER} ${args} --json ${OUT} --quiet
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "scale_ladder ${args} exited ${rc}, expected 2")
  endif()
endforeach()
