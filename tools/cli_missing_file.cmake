# CTest script: a campaign file that cannot be read is a command-line
# mistake. `campaign` and `serve` on a path that does not exist exit 2 and
# name the path on stderr.
#
# Inputs: -DFINSER_CLI=<path to binary>

set(missing /nonexistent/campaign.json)
foreach(cmd campaign serve)
  execute_process(
    COMMAND "${FINSER_CLI}" ${cmd} ${missing}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(FIND "${err}" "${missing}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "finser_cli ${cmd} ${missing}: exit code ${rc}, want "
                        "2 naming the path\nstderr: ${err}")
  endif()
endforeach()
