# CTest script: `finser_cli campaign --print-config` emits campaign JSON that
# must round-trip through the campaign parser byte-for-byte. We dump the
# paper's campaign (campaigns/paper.json), feed the dump back through
# `campaign --print-config`, and require identical output — any
# normalization drift (key order, number formatting, defaulting) fails the
# diff. The dump is also exactly what runs: see the MC-scale and
# byte-identity checks below. The last checks cover the command-line
# overrides, which the dump must carry, and the run report's `command` and
# `config_fingerprint` (also for a document without `artifact_dir`, run
# in-process and sharded).
#
# Inputs: -DFINSER_CLI=<path to binary> -DPAPER=<campaigns/paper.json>
#         -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${FINSER_CLI}" campaign "${PAPER}" --print-config
  OUTPUT_FILE "${WORK_DIR}/first.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign ${PAPER} --print-config failed with exit "
                      "code ${rc}")
endif()

execute_process(
  COMMAND "${FINSER_CLI}" campaign "${WORK_DIR}/first.json" --print-config
  OUTPUT_FILE "${WORK_DIR}/second.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign --print-config failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/first.json" "${WORK_DIR}/second.json"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ "${WORK_DIR}/first.json" first)
  file(READ "${WORK_DIR}/second.json" second)
  message(FATAL_ERROR "print-config does not round-trip through the campaign "
                      "parser.\n--- first ---\n${first}\n--- second ---\n"
                      "${second}")
endif()

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
foreach(csv tiny/pof_alpha.csv tiny/fit_summary.csv eh_pairs_alpha.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${doc_out}/${csv}" "${campaign_out}/${csv}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${csv}: a campaign and its --print-config dump "
                        "differ (or one is missing)")
  endif()
endforeach()

# Overrides are edits to the campaign document: `--cluster` and
# `--ci-target` show in the --print-config dump, and `campaign` on that dump
# with no flags writes the same CSVs as the flags do.
set(ov_flags --cluster 2x2 --ci-target 0.5)
string(JOIN " " ov_text ${ov_flags})
set(flag_out "${WORK_DIR}/ov_flag_out")
set(dump_out "${WORK_DIR}/ov_dump_out")
file(REMOVE_RECURSE "${flag_out}" "${dump_out}")
string(REPLACE "${campaign_out}" "${flag_out}" flag_doc "${dump}")
file(WRITE "${WORK_DIR}/ov_flag.json" "${flag_doc}")
execute_process(
  COMMAND "${FINSER_CLI}" campaign "${WORK_DIR}/ov_flag.json" ${ov_flags}
          --print-config
  OUTPUT_VARIABLE ov_dump
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign --cluster --ci-target --print-config failed "
                      "with exit code ${rc}")
endif()
foreach(needle "\"mode\": \"2x2\"" "\"ci_target\": 0.5")
  string(FIND "${ov_dump}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "campaign ${ov_text} --print-config does not print "
                        "${needle}:\n${ov_dump}")
  endif()
endforeach()
string(REPLACE "${flag_out}" "${dump_out}" ov_dump "${ov_dump}")
file(WRITE "${WORK_DIR}/ov_dump.json" "${ov_dump}")
foreach(cmd "${WORK_DIR}/ov_flag.json;${ov_flags}" "${WORK_DIR}/ov_dump.json")
  execute_process(
    COMMAND "${FINSER_CLI}" campaign ${cmd}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli campaign ${cmd} failed with exit code "
                        "${rc}\n${err}")
  endif()
endforeach()
foreach(csv tiny/pof_alpha.csv tiny/fit_summary.csv eh_pairs_alpha.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${flag_out}/${csv}" "${dump_out}/${csv}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${csv}: `campaign ${ov_text}` and `campaign` on "
                        "its --print-config dump differ (or one is missing)")
  endif()
endforeach()

# The run report names the run that happened: its `command` is the command
# line as given, and its `config_fingerprint` (the one that names a sharded
# run's document) changes with the cluster mode and the MC scale but not with --threads or
# --workers. fingerprint_of(<var> <report path>) reads it; each run below
# is "<name>;<environment or ->;<flags>...".
function(fingerprint_of var report)
  file(READ "${report}" text)
  string(REGEX MATCH "\"config_fingerprint\": \"(0x[0-9a-f]+)\"" m "${text}")
  if(NOT m)
    message(FATAL_ERROR "${report} has no config_fingerprint:\n${text}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()
foreach(run "plain1;-;--threads;1" "plain2;-;--threads;2;--workers;2"
            "cluster;-;--cluster;2x2" "scaled;FINSER_MC_SCALE=2")
  list(POP_FRONT run name env)
  set(launcher "${FINSER_CLI}")
  if(NOT env STREQUAL "-")
    set(launcher "${CMAKE_COMMAND}" -E env "${env}" "${FINSER_CLI}")
  endif()
  execute_process(
    COMMAND ${launcher} campaign "${WORK_DIR}/ov_flag.json" ${run}
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
file(READ "${WORK_DIR}/report_cluster.json" cluster_report)
string(FIND "${cluster_report}" "--cluster 2x2" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the --cluster 2x2 run report's command does not "
                      "record the flag:\n${cluster_report}")
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
