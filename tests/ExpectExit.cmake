# Runs a command and fails unless it exits with the expected code -- a
# ctest check that a usage error is exit 2, not just any failure.
#
#   cmake -DEXPECT=<code> [-DABSENT=<path>] -P ExpectExit.cmake -- <cmd>...
#
# ABSENT names a path the command must not create; it is removed first.
set(Cmd)
set(Collect OFF)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(Collect)
    list(APPEND Cmd "${CMAKE_ARGV${I}}")
  elseif("${CMAKE_ARGV${I}}" STREQUAL "--")
    set(Collect ON)
  endif()
endforeach()
if(DEFINED ABSENT)
  file(REMOVE_RECURSE "${ABSENT}")
endif()
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc OUTPUT_QUIET
                ERROR_VARIABLE Err)
if(NOT "${Rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${Rc}, expected ${EXPECT}:\n${Err}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "the command created ${ABSENT}")
endif()
