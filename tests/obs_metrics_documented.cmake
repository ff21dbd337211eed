# CTest script: every metric name the library emits under src/ must appear,
# in backticks, in docs/observability.md — so the metric table cannot
# silently drift behind the code. A name is collected from a
# FINSER_OBS_COUNT / FINSER_OBS_RECORD / FINSER_OBS_GAUGE call and from a
# string literal passed straight to the registry's `counter`,
# `int_histogram`, `duration` or `gauge`, so a direct call cannot hide one.
#
# Inputs: -DSRC_DIR=<src/ of the source tree> -DDOC=<docs/observability.md>

file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
file(READ "${DOC}" doc)

set(names "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  # The name may sit on the line after the call's open parenthesis.
  string(REGEX MATCHALL
         "(FINSER_OBS_[A-Z]+|counter|int_histogram|duration|gauge)\\([ \t\r\n]*\"[^\"]+\""
         calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE ".*\"([^\"]+)\"" "\\1" name "${call}")
    list(APPEND names "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES names)
list(SORT names)

list(LENGTH names count)
if(count EQUAL 0)
  message(FATAL_ERROR "no metric names found under ${SRC_DIR}")
endif()

set(missing "")
foreach(name IN LISTS names)
  string(FIND "${doc}" "`${name}`" at)
  if(at EQUAL -1)
    list(APPEND missing "${name}")
  endif()
endforeach()

if(missing)
  list(JOIN missing "\n  " listed)
  message(FATAL_ERROR
          "metrics emitted under src/ but missing from ${DOC}:\n  ${listed}")
endif()
message(STATUS "all ${count} metric names are documented")
