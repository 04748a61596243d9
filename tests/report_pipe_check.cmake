# Pipes a finished runner trace into fgm_report --trace=/dev/stdin, input
# that can be read only once. The report must match the one the file
# gives (apart from the path its banner names), and the same trace with
# its first SubroundStart's theta edited must fail the replay (exit 1).
#
#   cmake -DFGM_REPORT=path/to/fgm_report -DTRACE=obs_fgmo_trace.jsonl \
#         "-DARGS=--metrics=m.json --timeseries=ts.json --spans=s.json" \
#         -DOUT_DIR=some/dir -P report_pipe_check.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")

# execute_process joins its COMMANDs with real pipes.
function(report_from_pipe trace status_var out_var)
  execute_process(COMMAND cat ${trace}
                  COMMAND ${FGM_REPORT} --trace=/dev/stdin ${args}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(${status_var} "${status}" PARENT_SCOPE)
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${FGM_REPORT} --trace=${TRACE} ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE from_file
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "0")
  message(FATAL_ERROR "fgm_report on ${TRACE}: exit status '${status}', "
                      "expected 0\n${from_file}${err}")
endif()
string(REPLACE "FGM run report: ${TRACE}" "FGM run report: /dev/stdin"
       from_file "${from_file}")

report_from_pipe(${TRACE} status from_pipe)
if(NOT "${status}" STREQUAL "0")
  message(FATAL_ERROR "piped fgm_report: exit status '${status}', expected "
                      "0\n${from_pipe}")
endif()
if(NOT from_pipe STREQUAL from_file)
  message(FATAL_ERROR "piped fgm_report differs from the file's report\n"
                      "--- file:\n${from_file}\n--- pipe:\n${from_pipe}")
endif()

file(READ ${TRACE} text)
string(REGEX MATCH "\"ev\":\"SubroundStart\"[^\n]*\"theta\":[^,}\n]+" hit
       "${text}")
if(hit STREQUAL "")
  message(FATAL_ERROR "${TRACE}: no SubroundStart line with \"theta\"")
endif()
string(REGEX REPLACE "\"theta\":[^,}\n]+$" "\"theta\":123.5" edited_hit
       "${hit}")
string(FIND "${text}" "${hit}" at)
string(SUBSTRING "${text}" 0 ${at} before)
string(LENGTH "${hit}" hit_length)
math(EXPR after_at "${at} + ${hit_length}")
string(SUBSTRING "${text}" ${after_at} -1 after)
set(edited ${OUT_DIR}/pipe_SubroundStart_theta.jsonl)
file(WRITE ${edited} "${before}${edited_hit}${after}")
report_from_pipe(${edited} status from_pipe)
if(NOT "${status}" STREQUAL "1")
  message(FATAL_ERROR "piped fgm_report, SubroundStart theta=123.5: exit "
                      "status '${status}', expected 1\n${from_pipe}")
endif()
