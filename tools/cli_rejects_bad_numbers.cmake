# CTest script: numeric command-line arguments and INI values are validated
# before use. `cell <vdd>` must take a finite voltage > 0 with nothing
# trailing, the `run` INI sizes must not wrap around through an unsigned
# cast, supply-voltage lists must hold distinct positive voltages, and
# unknown options and campaign keys are rejected. Every rejection exits 2
# with a message naming the offending argument or key; `cell 0.8` still
# exits 0. An invalid FINSER_WORKERS is diagnosed on stderr and ignored.
#
# Inputs: -DFINSER_CLI=<path to binary> -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_exit(<code> <needle> <args>...): run finser_cli with <args>, require
# exit code <code> and, unless <needle> is empty, <needle> on stderr. A
# non-empty `cli_env` (NAME=VALUE) in the caller's scope is set for the run.
function(expect_exit code needle)
  string(JOIN " " cmdline ${cli_env} ${ARGN})
  set(launcher "${FINSER_CLI}")
  if(cli_env)
    set(launcher "${CMAKE_COMMAND}" -E env "${cli_env}" "${FINSER_CLI}")
  endif()
  execute_process(
    COMMAND ${launcher} ${ARGN}
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

# Supply voltages: a repeated or non-positive one exits 2 naming `vdds`
# before anything runs, from the INI and from a campaign file alike; the
# order stays free.
foreach(case "0.8, 0.8" "0.9, 0.7, 0.9" "0.8, -0.7" "0.8, 0")
  set(ini "${WORK_DIR}/vdds.ini")
  file(WRITE "${ini}" "cell.vdds = ${case}\n")
  expect_exit(2 "vdds" run "${ini}" --print-config)
endforeach()
file(WRITE "${ini}" "cell.vdds = 0.9, 0.7\n")
expect_exit(0 "" run "${ini}" --print-config)
set(dup "${WORK_DIR}/dup_vdds.json")
file(WRITE "${dup}"
     "{\"scenarios\": [{\"name\": \"a\", \"vdds\": [0.8, 0.8]}]}\n")
expect_exit(2 "vdds" campaign "${dup}" --print-config)

# The SPICE lane width is fixed by the build: neither a --lanes option nor a
# campaign `lanes` key exists.
expect_exit(2 "--lanes" campaign "${campaign}" --lanes 4)
set(lanes "${WORK_DIR}/lanes.json")
file(WRITE "${lanes}" "{\"lanes\": 4, \"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "`lanes`" campaign "${lanes}" --print-config)

# FINSER_WORKERS must be a non-negative integer; anything else is reported
# (like FINSER_THREADS) and ignored.
foreach(bad abc -2 2x)
  set(cli_env "FINSER_WORKERS=${bad}")
  expect_exit(0 "ignoring invalid FINSER_WORKERS=\"${bad}\"" campaign
              "${campaign}" --print-config)
endforeach()
unset(cli_env)
