# CTest script: `finser_cli campaign --print-config` emits campaign JSON that
# must round-trip through the campaign parser byte-for-byte. Two documents
# are pinned: the paper's campaign (campaigns/paper.json) and a document
# that sets every scenario, `sampling` and `cluster` key, some through
# `defaults` (tests/fixtures/every_key.json). Each dump must equal its
# committed fixture (tests/fixtures/*.dump.json) byte for byte, and so must
# the dump of that fixture — any normalization drift (key order, number
# formatting, defaulting) fails. The dump is also exactly what runs: see the
# MC-scale and byte-identity checks below. The last checks cover documents
# that turn on cluster tiles and adaptive stopping, and the run report's
# `command` and `config_fingerprint` (also for a document without
# `artifact_dir`, run in-process and sharded).
#
# Inputs: -DFINSER_CLI=<path to binary> -DPAPER=<campaigns/paper.json>
#         -DFIXTURES=<tests/fixtures> -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_dump(<document> <fixture>): `campaign <document> --print-config`
# must print <fixture>'s bytes.
function(expect_dump document fixture)
  get_filename_component(name "${document}" NAME)
  set(out "${WORK_DIR}/${name}.printed")
  execute_process(
    COMMAND "${FINSER_CLI}" campaign "${document}" --print-config
    OUTPUT_FILE "${out}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign ${document} --print-config failed with "
                        "exit code ${rc}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${out}" "${fixture}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    file(READ "${out}" printed)
    file(READ "${fixture}" want)
    message(FATAL_ERROR "campaign ${document} --print-config does not print "
                        "${fixture}.\n--- printed ---\n${printed}\n--- want "
                        "---\n${want}")
  endif()
endfunction()

foreach(doc paper every_key)
  set(fixture "${FIXTURES}/${doc}.dump.json")
  if(doc STREQUAL "paper")
    expect_dump("${PAPER}" "${fixture}")
  else()
    expect_dump("${FIXTURES}/${doc}.json" "${fixture}")
  endif()
  expect_dump("${fixture}" "${fixture}")
endforeach()

# --print-config applies no MC scale — the campaign runner applies
# FINSER_MC_SCALE exactly once — so a scaled environment still prints the
# configured (unscaled) sizes.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env FINSER_MC_SCALE=0.5
          "${FINSER_CLI}" campaign "${PAPER}" --print-config
  OUTPUT_VARIABLE scaled
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scaled campaign --print-config failed with exit code "
                      "${rc}")
endif()
foreach(needle "\"strikes\": 60000" "\"pv_samples\": 200")
  string(FIND "${scaled}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "FINSER_MC_SCALE=0.5 campaign --print-config does not "
                        "print the unscaled ${needle}:\n${scaled}")
  endif()
endforeach()

# run_campaign(<document> <args>...): `campaign <document> <args>` must
# exit 0.
function(run_campaign document)
  execute_process(
    COMMAND "${FINSER_CLI}" campaign "${document}" ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli campaign ${document} ${ARGN} failed with "
                        "exit code ${rc}\n${err}")
  endif()
endfunction()

# expect_same_csvs(<dir a> <dir b> <what>): both runs wrote the same CSVs.
function(expect_same_csvs a b what)
  foreach(csv tiny/pof_alpha.csv tiny/fit_summary.csv eh_pairs_alpha.csv)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${a}/${csv}" "${b}/${csv}"
      RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR "${csv}: ${what} differ (or one is missing)")
    endif()
  endforeach()
endfunction()

# A document is its --print-config dump: on a tiny campaign under a scaled
# environment, the document and its dump (redirected to another output
# directory and artifact store) write byte-identical CSVs.
set(doc_out "${WORK_DIR}/doc_out")
set(campaign_out "${WORK_DIR}/campaign_out")
file(REMOVE_RECURSE "${doc_out}" "${campaign_out}")
file(WRITE "${WORK_DIR}/tiny_doc.json"
     "{\"seed\": 99, \"artifact_dir\": \"${doc_out}/artifacts\",\n"
     " \"output_dir\": \"${doc_out}\",\n"
     " \"scenarios\": [{\"name\": \"tiny\", \"rows\": 2, \"cols\": 2,\n"
     "   \"vdds\": [0.8], \"pv_samples\": 10, \"strikes\": 1000,\n"
     "   \"species\": [\"alpha\"]}]}\n")
execute_process(
  COMMAND "${FINSER_CLI}" campaign "${WORK_DIR}/tiny_doc.json" --print-config
  OUTPUT_VARIABLE dump
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tiny campaign --print-config failed with exit code "
                      "${rc}")
endif()
string(REPLACE "${doc_out}" "${campaign_out}" dump "${dump}")
file(WRITE "${WORK_DIR}/tiny.json" "${dump}")
foreach(doc "${WORK_DIR}/tiny_doc.json" "${WORK_DIR}/tiny.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env FINSER_MC_SCALE=0.5
            "${FINSER_CLI}" campaign "${doc}" --threads 2
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli campaign ${doc} failed with exit code "
                        "${rc}\n${err}")
  endif()
endforeach()
expect_same_csvs("${doc_out}" "${campaign_out}"
                 "a campaign and its --print-config dump")

# Cluster tiles and adaptive stopping are document keys like any other: a
# copy of the tiny dump edited to `"mode": "2x2"` and `"ci_target": 0.5`
# prints both, and `campaign` on its own dump writes the same CSVs.
set(edit_out "${WORK_DIR}/ov_edit_out")
set(dump_out "${WORK_DIR}/ov_dump_out")
file(REMOVE_RECURSE "${edit_out}" "${dump_out}")
string(REPLACE "${campaign_out}" "${edit_out}" plain_doc "${dump}")
file(WRITE "${WORK_DIR}/ov_plain.json" "${plain_doc}")
string(REPLACE "\"mode\": \"1x1\"" "\"mode\": \"2x2\"" cluster_doc
       "${plain_doc}")
string(REPLACE "\"ci_target\": 0.0" "\"ci_target\": 0.5" edit_doc
       "${cluster_doc}")
file(WRITE "${WORK_DIR}/ov_cluster.json" "${cluster_doc}")
file(WRITE "${WORK_DIR}/ov_edit.json" "${edit_doc}")
execute_process(
  COMMAND "${FINSER_CLI}" campaign "${WORK_DIR}/ov_edit.json" --print-config
  OUTPUT_VARIABLE ov_dump
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign ov_edit.json --print-config failed with exit "
                      "code ${rc}")
endif()
foreach(needle "\"mode\": \"2x2\"" "\"ci_target\": 0.5")
  string(FIND "${ov_dump}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "campaign ov_edit.json --print-config does not print "
                        "${needle}:\n${ov_dump}")
  endif()
endforeach()
string(REPLACE "${edit_out}" "${dump_out}" ov_dump "${ov_dump}")
file(WRITE "${WORK_DIR}/ov_dump.json" "${ov_dump}")
run_campaign("${WORK_DIR}/ov_edit.json")
run_campaign("${WORK_DIR}/ov_dump.json")
expect_same_csvs("${edit_out}" "${dump_out}"
                 "the edited document and its --print-config dump")

# The run report names the run that happened: its `command` is the command
# line as given, and its `config_fingerprint` (the one that names a sharded
# run's document) changes with the cluster mode and the MC scale but not with
# --threads or --workers. fingerprint_of(<var> <report path>) reads it; each
# run below is "<name>;<document>;<environment or ->;<flags>...".
function(fingerprint_of var report)
  file(READ "${report}" text)
  string(REGEX MATCH "\"config_fingerprint\": \"(0x[0-9a-f]+)\"" m "${text}")
  if(NOT m)
    message(FATAL_ERROR "${report} has no config_fingerprint:\n${text}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()
foreach(run "plain1;ov_plain;-;--threads;1"
            "plain2;ov_plain;-;--threads;2;--workers;2"
            "cluster;ov_cluster;-" "scaled;ov_plain;FINSER_MC_SCALE=2")
  list(POP_FRONT run name doc env)
  set(launcher "${FINSER_CLI}")
  if(NOT env STREQUAL "-")
    set(launcher "${CMAKE_COMMAND}" -E env "${env}" "${FINSER_CLI}")
  endif()
  execute_process(
    COMMAND ${launcher} campaign "${WORK_DIR}/${doc}.json" ${run}
            --metrics-out "${WORK_DIR}/report_${name}.json"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} report run failed with exit code ${rc}\n"
                        "${err}")
  endif()
  fingerprint_of(fp_${name} "${WORK_DIR}/report_${name}.json")
endforeach()
file(READ "${WORK_DIR}/report_plain2.json" plain2_report)
string(FIND "${plain2_report}" "--threads 2 --workers 2" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the --threads 2 --workers 2 run report's command does "
                      "not record the flags:\n${plain2_report}")
endif()
if(NOT fp_plain1 STREQUAL fp_plain2)
  message(FATAL_ERROR "config_fingerprint changed with --threads/--workers: "
                      "${fp_plain1} vs ${fp_plain2}")
endif()
foreach(name cluster scaled)
  if(fp_${name} STREQUAL fp_plain1)
    message(FATAL_ERROR "the ${name} run reports the plain run's "
                        "config_fingerprint ${fp_plain1}")
  endif()
endforeach()
if(fp_cluster STREQUAL fp_scaled)
  message(FATAL_ERROR "the cluster and scaled runs report one "
                      "config_fingerprint ${fp_cluster}")
endif()

# A document without `artifact_dir` is one run in-process and sharded: the
# supervisor defaults the store to <output_dir>/artifacts, and the store's
# location is not part of the fingerprint. Both runs write to one output
# directory, which is part of it.
set(noart_out "${WORK_DIR}/noart_out")
file(REMOVE_RECURSE "${noart_out}")
string(REPLACE "${campaign_out}" "${noart_out}" noart_doc "${dump}")
string(REGEX REPLACE "\n *\"artifact_dir\": \"[^\"]*\"," "" noart_doc
       "${noart_doc}")
string(FIND "${noart_doc}" "\"artifact_dir\"" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "could not drop artifact_dir from:\n${noart_doc}")
endif()
file(WRITE "${WORK_DIR}/noart.json" "${noart_doc}")
foreach(run "inproc;--threads;2" "sharded;--workers;2")
  list(POP_FRONT run name)
  execute_process(
    COMMAND "${FINSER_CLI}" campaign "${WORK_DIR}/noart.json" ${run}
            --metrics-out "${WORK_DIR}/report_noart_${name}.json"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "store-less ${name} run failed with exit code ${rc}\n"
                        "${err}")
  endif()
  fingerprint_of(fp_noart_${name} "${WORK_DIR}/report_noart_${name}.json")
endforeach()
if(NOT fp_noart_inproc STREQUAL fp_noart_sharded)
  message(FATAL_ERROR "a document without artifact_dir reports "
                      "${fp_noart_inproc} in-process but ${fp_noart_sharded} "
                      "with --workers 2")
endif()
