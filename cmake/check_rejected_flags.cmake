# Requires a command-line binary to refuse every listed argument vector
# with exit status 2 (a usage error) instead of running. Each case after
# `--` is one argument vector with its words joined by "|". Cases are
# chosen so that a binary which wrongly accepts one does a cheap run (a
# --dry-run, or a ladder capped below its smallest rung) and exits with
# some other status. Stdin is empty, so a daemon that wrongly accepts a
# case in stdio mode reads end-of-input and stops. Invoked by ctest:
#   cmake -DBIN=<binary> -P check_rejected_flags.cmake -- <case>...
set(cases)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cases "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cases)
  message(FATAL_ERROR "no cases given after --")
endif()
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND ${BIN} ${args}
    INPUT_FILE /dev/null
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE "|" " " shown "${case}")
    message(FATAL_ERROR "${BIN} ${shown} exited ${rc}, expected 2")
  endif()
endforeach()
