# CTest script: numeric command-line arguments and campaign values are
# validated before use. `cell <vdd>` must take a finite voltage > 0 with
# nothing trailing, campaign sizes and seeds must not wrap or saturate
# through an unsigned cast, supply-voltage lists must hold distinct positive
# voltages, σVt, the node capacitance and the CI target must be finite and in
# range, campaign files must be well-formed JSON, and unknown commands,
# options and campaign keys (the retired sampler knobs among them) are
# rejected, as are an option the command does not read and an argument past
# the ones it takes. Every rejection exits 2 with a message naming the
# offending argument, key or file; `cell 0.8` still exits 0.
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

# expect_scenario_exit(<code> <needle> <entry>): a one-scenario campaign
# whose scenario holds <entry> (JSON member text) through `--print-config`.
function(expect_scenario_exit code needle entry)
  set(json "${WORK_DIR}/scenario.json")
  file(WRITE "${json}" "{\"scenarios\": [{\"name\": \"a\", ${entry}}]}\n")
  expect_exit(${code} "${needle}" campaign "${json}" --print-config)
endfunction()

# One bad value per bounded key: sizes and counts must be >= 1, the seeds
# and the thread count >= 0, and every integer must fit its type — an
# exponent-form count of 2^64 or more exits 2 instead of saturating.
foreach(case "\"rows\": -3:rows" "\"cols\": 0:cols" "\"strikes\": -5:strikes"
             "\"pv_samples\": 0:pv_samples" "\"seed\": -1:seed"
             "\"pv_samples\": 1e300:pv_samples" "\"rows\": 3e19:rows"
             "\"seed\": 1e20:seed" "\"seed\": 18446744073709551616:seed")
  string(FIND "${case}" ":" at REVERSE)
  string(SUBSTRING "${case}" 0 ${at} entry)
  math(EXPR at "${at} + 1")
  string(SUBSTRING "${case}" ${at} -1 needle)
  expect_scenario_exit(2 "${needle}" "${entry}")
endforeach()
set(threads "${WORK_DIR}/threads.json")
file(WRITE "${threads}" "{\"threads\": -2, \"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "threads" campaign "${threads}" --print-config)

# An unknown --option is an error naming it, never a positional argument (a
# campaign path) or silently ignored — `--resume` included: runs resume
# through their artifact store, with no flag.
set(campaign "${WORK_DIR}/campaign.json")
file(WRITE "${campaign}" "{\"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "--thread" campaign "${campaign}" --thread 4)
expect_exit(2 "--resume" campaign "${campaign}" --resume p)
expect_exit(2 "--bogus" campaign "${campaign}" --bogus)

# The document is the one place a run's values are set: the options that
# repeated it (named here without their leading dashes) are unknown, for
# every command. Cluster tiles are `cluster.mode`, adaptive stopping
# `sampling.ci_target` and the store `artifact_dir`.
foreach(removed "cluster;2x2" "ci-target;0.5" "artifact-dir;${WORK_DIR}/x")
  list(POP_FRONT removed name)
  expect_exit(2 "unknown option --${name}" campaign "${campaign}"
              "--${name}" ${removed} --print-config)
  expect_exit(2 "unknown option --${name}" serve "${campaign}" "--${name}"
              ${removed})
  expect_exit(2 "unknown option --${name}" artifacts ls "--${name}"
              ${removed})
endforeach()

# `campaign` is the one way to run the flow: `run` is an unknown command.
expect_exit(2 "`run`" run)
expect_exit(2 "`run`" run "${campaign}" --print-config)

# A command exits 2 on a flag it does not read, naming the flag and the
# command, instead of ignoring it.
expect_exit(2 "`campaign` does not read --max-pending" campaign
            "${campaign}" --max-pending 4 --print-config)
expect_exit(2 "`cell` does not read --workers" cell 0.8 --workers 3)
foreach(flag "--print-config" "--workers;2" "--metrics-out;${WORK_DIR}/m.json"
             "--trace-out;${WORK_DIR}/t.json")
  list(GET flag 0 name)
  expect_exit(2 "`serve` does not read ${name}" serve "${campaign}" ${flag})
endforeach()

# A command exits 2 on an argument past the ones it takes, naming the
# argument and the command, instead of ignoring it.
set(other "${WORK_DIR}/other.json")
expect_exit(2 "unexpected argument `${other}` for `campaign`" campaign
            "${campaign}" "${other}" --print-config)
expect_exit(2 "unexpected argument `${other}` for `serve`" serve
            "${campaign}" "${other}")
expect_exit(2 "unexpected argument `0.9` for `cell`" cell 0.8 0.9)
expect_exit(2 "unexpected argument `${WORK_DIR}/d2` for `artifacts`" artifacts
            ls "${WORK_DIR}/d1" "${WORK_DIR}/d2")

# sampling.ci_target is a finite relative half-width >= 0; JSON cannot
# spell nan or inf (the malformed-document legs below cover those).
foreach(bad "-1" "\"abc\"")
  expect_scenario_exit(2 "ci_target" "\"sampling\": {\"ci_target\": ${bad}}")
endforeach()

# Supply voltages: a repeated or non-positive one exits 2 naming `vdds`
# before anything runs; the order stays free.
foreach(case "0.8, 0.8" "0.9, 0.7, 0.9" "0.8, -0.7" "0.8, 0")
  expect_scenario_exit(2 "vdds" "\"vdds\": [${case}]")
endforeach()
expect_scenario_exit(0 "" "\"vdds\": [0.9, 0.7]")
set(dup "${WORK_DIR}/dup_vdds.json")
file(WRITE "${dup}"
     "{\"defaults\": {\"vdds\": [0.8, 0.8]}, \"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "vdds" campaign "${dup}" --print-config)

# `defaults` is read on its own: a bad value or block key there exits 2
# naming the block even when every scenario overrides it.
set(overridden "${WORK_DIR}/overridden_defaults.json")
file(WRITE "${overridden}" "{\"defaults\": {\"rows\": \"nine\"}, "
     "\"scenarios\": [{\"name\": \"a\", \"rows\": 2}]}\n")
expect_exit(2 "`rows` at defaults" campaign "${overridden}" --print-config)
file(WRITE "${overridden}" "{\"defaults\": {\"sampling\": {\"ci_targt\": 0.1}}, "
     "\"scenarios\": [{\"name\": \"a\", \"sampling\": {}}]}\n")
expect_exit(2 "defaults.sampling" campaign "${overridden}" --print-config)

# σVt finite and >= 0, the node capacitance finite and > 0, the CI target
# finite and >= 0: out-of-range values exit 2 at parse time, naming the key,
# from a scenario and through the defaults block alike. JSON has no NaN or
# infinity, so those spellings exit 2 as malformed documents, naming the
# file.
foreach(case "\"sigma_vt\": -0.05:sigma_vt" "\"cnode_f\": 0:cnode_f"
             "\"cnode_f\": -1e-15:cnode_f"
             "\"sampling\": {\"ci_target\": -0.5}:ci_target")
  string(FIND "${case}" ":" at REVERSE)
  string(SUBSTRING "${case}" 0 ${at} entry)
  math(EXPR at "${at} + 1")
  string(SUBSTRING "${case}" ${at} -1 needle)
  expect_scenario_exit(2 "${needle}" "${entry}")
  set(json "${WORK_DIR}/defaults_numbers.json")
  file(WRITE "${json}"
       "{\"defaults\": {${entry}}, \"scenarios\": [{\"name\": \"a\"}]}\n")
  expect_exit(2 "${needle}" campaign "${json}" --print-config)
endforeach()
foreach(entry "\"sigma_vt\": NaN" "\"cnode_f\": NaN"
              "\"sampling\": {\"ci_target\": NaN}"
              "\"sampling\": {\"ci_target\": Infinity}" "\"vdds\": [0.8, NaN]")
  set(json "${WORK_DIR}/non_finite.json")
  file(WRITE "${json}" "{\"scenarios\": [{\"name\": \"a\", ${entry}}]}\n")
  expect_exit(2 "${json}" campaign "${json}" --print-config)
endforeach()

# A campaign file that is not JSON — truncated, or holding a number no
# double can represent — exits 2 naming the file, for every command that
# reads one.
set(truncated "${WORK_DIR}/truncated.json")
file(WRITE "${truncated}" "{\"scenarios\": [")
set(huge "${WORK_DIR}/huge_number.json")
file(WRITE "${huge}"
     "{\"scenarios\": [{\"name\": \"a\", \"sigma_vt\": 1e999}]}\n")
foreach(doc "${truncated}" "${huge}")
  expect_exit(2 "${doc}" campaign "${doc}" --print-config)
  expect_exit(2 "${doc}" campaign "${doc}")
  expect_exit(2 "${doc}" serve "${doc}")
  expect_exit(2 "${doc}" worker "${doc}")
endforeach()

# The sampling block holds `position` (uniform | importance), `qmc` and the
# three `ci_*` keys; the deleted sampler knobs and the stratified position
# exit 2 naming the block (docs/statistics.md has the evidence that
# retired them).
foreach(entry "\"energy_strata\": 4" "\"direction_bias\": 0.5"
              "\"grazing_bias\": 0.9" "\"focus_fraction\": 0.9"
              "\"focus_margin_nm\": 5.0" "\"position\": \"stratified\"")
  set(json "${WORK_DIR}/sampling.json")
  file(WRITE "${json}"
       "{\"scenarios\": [{\"name\": \"a\", \"sampling\": {${entry}}}]}\n")
  expect_exit(2 "scenarios[0].sampling" campaign "${json}" --print-config)
endforeach()

# The SPICE lane width is fixed by the build: neither a --lanes option nor a
# campaign `lanes` key exists.
expect_exit(2 "--lanes" campaign "${campaign}" --lanes 4)
set(lanes "${WORK_DIR}/lanes.json")
file(WRITE "${lanes}" "{\"lanes\": 4, \"scenarios\": [{\"name\": \"a\"}]}\n")
expect_exit(2 "`lanes`" campaign "${lanes}" --print-config)
