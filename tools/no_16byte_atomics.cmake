# Fails if any binary given on the command line references a 16-byte
# libatomic routine (__atomic_load_16, __atomic_compare_exchange_16, ...).
#
#   cmake -DNM=/usr/bin/nm -P tools/no_16byte_atomics.cmake bin1 bin2 ...
#
# Registered as the no_16byte_atomics ctest case by the root CMakeLists.txt.
if(NOT NM)
  message(FATAL_ERROR "no_16byte_atomics: pass -DNM=<path to nm>")
endif()

# The binaries are the arguments after `-P <script>`.
math(EXPR last "${CMAKE_ARGC} - 1")
set(first 0)
foreach(i RANGE ${last})
  if("${CMAKE_ARGV${i}}" STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
if(first EQUAL 0 OR first GREATER last)
  message(FATAL_ERROR "no_16byte_atomics: no binaries given")
endif()

set(offenders "")
foreach(i RANGE ${first} ${last})
  set(bin "${CMAKE_ARGV${i}}")
  execute_process(COMMAND ${NM} -u "${bin}"
    OUTPUT_VARIABLE undefined ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "no_16byte_atomics: ${NM} -u ${bin} failed: ${err}")
  endif()
  string(REGEX MATCHALL "__atomic_[a-z_]+_16" hits "${undefined}")
  if(hits)
    list(REMOVE_DUPLICATES hits)
    string(REPLACE ";" ", " hits "${hits}")
    string(APPEND offenders "\n  ${bin}: ${hits}")
  endif()
endforeach()

if(offenders)
  message(FATAL_ERROR "16-byte libatomic calls referenced:${offenders}")
endif()
math(EXPR count "${last} - ${first} + 1")
message(STATUS "no_16byte_atomics: ${count} binaries clean")
