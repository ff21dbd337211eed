# CTest script: every key of the every-key campaign fixture — it sets every
# top-level, scenario, `sampling` and `cluster` key — must appear, in
# backticks, in the schema comment of include/finser/pipeline/campaign.hpp
# (its file comment, before the first #include), so the documented schema
# cannot silently drift behind the parser.
#
# Inputs: -DFIXTURE=<tests/fixtures/every_key.json>
#         -DHEADER=<include/finser/pipeline/campaign.hpp>

file(READ "${FIXTURE}" doc)
file(READ "${HEADER}" header)
string(FIND "${header}" "#include" end)
string(SUBSTRING "${header}" 0 ${end} schema)

string(REGEX MATCHALL "\"[A-Za-z0-9_]+\"[ \t\r\n]*:" members "${doc}")
set(keys "")
foreach(member IN LISTS members)
  string(REGEX REPLACE "^\"([A-Za-z0-9_]+)\".*" "\\1" key "${member}")
  list(APPEND keys "${key}")
endforeach()
list(REMOVE_DUPLICATES keys)
list(SORT keys)

list(LENGTH keys count)
if(count EQUAL 0)
  message(FATAL_ERROR "no keys found in ${FIXTURE}")
endif()

set(missing "")
foreach(key IN LISTS keys)
  string(FIND "${schema}" "`${key}`" at)
  if(at EQUAL -1)
    list(APPEND missing "${key}")
  endif()
endforeach()

if(missing)
  list(JOIN missing "\n  " listed)
  message(FATAL_ERROR "campaign keys set in ${FIXTURE} but missing from the "
                      "schema comment of ${HEADER}:\n  ${listed}")
endif()
message(STATUS "all ${count} campaign keys are documented")
