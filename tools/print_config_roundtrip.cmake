# CTest script: `finser_cli run --print-config` emits campaign JSON that must
# round-trip through the campaign parser byte-for-byte. We dump the resolved
# default config, feed the dump back through `campaign --print-config`, and
# require identical output — any normalization drift (key order, number
# formatting, defaulting) fails the diff. The dump is also exactly what
# `run` executes: see the MC-scale and byte-identity checks below.
#
# Inputs: -DFINSER_CLI=<path to binary> -DWORK_DIR=<scratch dir>

file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${FINSER_CLI}" run --print-config
  OUTPUT_FILE "${WORK_DIR}/first.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --print-config failed with exit code ${rc}")
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

# The lowering applies no MC scale — the campaign runner applies
# FINSER_MC_SCALE exactly once — so a scaled environment still prints the
# configured (unscaled) sizes.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env FINSER_MC_SCALE=0.5
          "${FINSER_CLI}" run --print-config
  OUTPUT_VARIABLE scaled
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scaled run --print-config failed with exit code ${rc}")
endif()
foreach(needle "\"strikes\": 60000" "\"pv_samples\": 200")
  string(FIND "${scaled}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "FINSER_MC_SCALE=0.5 run --print-config does not "
                        "print the unscaled ${needle}:\n${scaled}")
  endif()
endforeach()

# `run` is its --print-config campaign: on a tiny INI under a scaled
# environment, `run` and `campaign` on the dump (redirected to another
# output directory and artifact store) write byte-identical CSVs.
set(run_out "${WORK_DIR}/run_out")
set(campaign_out "${WORK_DIR}/campaign_out")
file(REMOVE_RECURSE "${run_out}" "${campaign_out}")
file(WRITE "${WORK_DIR}/tiny.ini"
     "array.rows = 2\narray.cols = 2\ncell.vdds = 0.8\nmc.pv_samples = 10\n"
     "mc.strikes = 1000\nmc.seed = 99\nspecies = alpha\n"
     "output.dir = ${run_out}\n")
execute_process(
  COMMAND "${FINSER_CLI}" run "${WORK_DIR}/tiny.ini" --print-config
  OUTPUT_VARIABLE dump
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tiny run --print-config failed with exit code ${rc}")
endif()
string(REPLACE "${run_out}" "${campaign_out}" dump "${dump}")
file(WRITE "${WORK_DIR}/tiny.json" "${dump}")
foreach(cmd "run;${WORK_DIR}/tiny.ini" "campaign;${WORK_DIR}/tiny.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env FINSER_MC_SCALE=0.5
            "${FINSER_CLI}" ${cmd} --threads 2
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "finser_cli ${cmd} failed with exit code ${rc}\n${err}")
  endif()
endforeach()
foreach(csv run/pof_alpha.csv run/fit_summary.csv eh_pairs_alpha.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${run_out}/${csv}" "${campaign_out}/${csv}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${csv}: `run` and `campaign` on its --print-config "
                        "dump differ (or one is missing)")
  endif()
endforeach()
