# CTest script: numeric command-line arguments and INI values are validated
# before use. `cell <vdd>` must take a finite voltage > 0 with nothing
# trailing, the `run` INI sizes must not wrap around through an unsigned
# cast, and unknown options are rejected. Every rejection exits 2 with a
# message naming the offending argument or key; `cell 0.8` still exits 0.
#
# Inputs: -DFINSER_CLI=<path to binary> -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_exit(<code> <needle> <args>...): run finser_cli with <args>, require
# exit code <code> and, unless <needle> is empty, <needle> on stderr.
function(expect_exit code needle)
  string(JOIN " " cmdline ${ARGN})
  execute_process(
    COMMAND "${FINSER_CLI}" ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "finser_cli ${cmdline}: exit code ${rc}, want ${code}\n"
                        "stderr: ${err}")
  endif()
  if(NOT needle STREQUAL "")
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "finser_cli ${cmdline}: stderr does not name "
                          "`${needle}`\nstderr: ${err}")
    endif()
  endif()
endfunction()

expect_exit(0 "" cell 0.8)
foreach(bad abc 0.8x inf nan 0 -0.8)
  expect_exit(2 "\"${bad}\"" cell ${bad})
endforeach()

# One bad INI per bounded key: sizes and counts must be >= 1, the seed and
# the thread count >= 0.
foreach(case "array.rows=-3" "array.cols=0" "mc.strikes=-5"
             "mc.pv_samples=0" "mc.seed=-1" "mc.threads=-2")
  string(REPLACE "=" ";" kv "${case}")
  list(GET kv 0 key)
  list(GET kv 1 value)
  set(ini "${WORK_DIR}/${key}.ini")
  file(WRITE "${ini}" "${key} = ${value}\n")
  expect_exit(2 "${key}" run "${ini}" --print-config)
endforeach()

# An unknown --option is an error naming it, never a positional argument (a
# config or campaign path) or silently ignored — `--resume` included: runs
# resume through their artifact store, with no flag.
expect_exit(2 "--thread" run --thread 4)
expect_exit(2 "--resume" run "${WORK_DIR}/x.ini" --resume p)
set(campaign "${WORK_DIR}/campaign.json")
file(WRITE "${campaign}" "{\"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "--bogus" campaign "${campaign}" --bogus)
