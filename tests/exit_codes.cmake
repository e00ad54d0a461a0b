# The exit-code rule of the `extradeep` driver, one case per line: 2 for a
# usage error (no or unknown subcommand, unknown flag, missing required flag,
# unparsable value), 1 for a runtime failure, 0 otherwise (including --help).
#
#   cmake -DEXTRADEEP=<extradeep> -DWORK=<scratch dir> -P exit_codes.cmake
set(missing "${WORK}/exit_codes_no_such_file.json")
# One case per entry: the expected code, then the arguments, "|"-separated.
set(cases
  "2"
  "2|nope"
  "2|eval|--bogus"
  "2|serve|--bogus"
  "2|fleet|--bogus"
  "2|fit"
  "2|drive|--port|not-a-number"
  "0|--help"
  "0|eval|--help"
  "1|eval|--validate-json|${missing}"
)
set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 expected)
  list(REMOVE_AT parts 0)
  execute_process(COMMAND ${EXTRADEEP} ${parts}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  string(REPLACE ";" " " shown "extradeep ${parts}")
  if(NOT rc STREQUAL expected)
    message(SEND_ERROR "'${shown}' exited ${rc}, expected ${expected}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "'${shown}' -> ${rc}")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} exit-code case(s) failed")
endif()
