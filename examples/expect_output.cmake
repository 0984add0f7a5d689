# Runs an example for ctest: passes iff the program exits 0 and its standard
# output matches every regular expression of EXPECT.
#
#   cmake -DCMD=<program> -DARGS="<arg>|<arg>" -DEXPECT="<re>|<re>" \
#         -P expect_output.cmake
#
# ARGS and EXPECT are '|'-separated, so an expression spells a literal '|'
# as '.'.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" expect "${EXPECT}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${rc}\n${out}${err}")
endif()
foreach(re IN LISTS expect)
  if(NOT out MATCHES "${re}")
    message(FATAL_ERROR "${CMD}: output does not match /${re}/:\n${out}")
  endif()
endforeach()
