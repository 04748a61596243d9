# Edits one field of a finished runner trace and checks that the offline
# tools reject the result cleanly: trace_check exits 1, and fgm_report
# exits 1 (a failed cross-check) or 2 (an unreadable trace), never with a
# signal. The values are far out of range, so a tool that sized a table
# by them would fail its allocation at once rather than hold gigabytes.
#
#   cmake -DTRACE_CHECK=path/to/trace_check -DFGM_REPORT=path/to/fgm_report \
#         -DFLAT=obs_fgm_trace.jsonl -DFGMO=obs_fgmo_trace.jsonl \
#         -DTREE=hier_tree_trace.jsonl -DREJOIN=sim_rejoin_trace.jsonl \
#         -DOUT_DIR=some/dir -P hostile_trace_check.cmake

# Writes `trace` with `"key":<value>` on the first line of kind `ev` that
# holds `key` set to `value`, then runs the tools on it. With `report`,
# fgm_report runs too.
function(expect_rejected trace ev key value report)
  file(READ ${trace} text)
  string(REGEX MATCH "\"ev\":\"${ev}\"[^\n]*\"${key}\":[^,}\n]+" hit "${text}")
  if(hit STREQUAL "")
    message(FATAL_ERROR "${trace}: no ${ev} line with \"${key}\"")
  endif()
  string(FIND "${text}" "${hit}" at)
  string(LENGTH "${hit}" hit_length)
  math(EXPR after_at "${at} + ${hit_length}")
  string(SUBSTRING "${text}" 0 ${at} before)
  string(SUBSTRING "${text}" ${after_at} -1 after)
  string(REGEX REPLACE "\"${key}\":[^,}\n]+$" "\"${key}\":${value}" hit
         "${hit}")
  set(edited ${OUT_DIR}/hostile_${ev}_${key}.jsonl)
  file(WRITE ${edited} "${before}${hit}${after}")
  execute_process(COMMAND ${TRACE_CHECK} ${edited}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT "${status}" STREQUAL "1")
    message(FATAL_ERROR "trace_check, ${ev} ${key}=${value}: exit status "
                        "'${status}', expected 1\n${out}${err}")
  endif()
  if(report)
    execute_process(COMMAND ${FGM_REPORT} --trace=${edited}
                    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT "${status}" STREQUAL "1" AND NOT "${status}" STREQUAL "2")
      message(FATAL_ERROR "fgm_report, ${ev} ${key}=${value}: exit status "
                          "'${status}', expected 1 or 2\n${err}")
    endif()
  endif()
endfunction()

# Edits a lenient reader once filled with a default and certified.
expect_rejected(${FLAT} MsgSent msg "\"x\"" FALSE)
expect_rejected(${FLAT} MsgSent site -1 FALSE)
expect_rejected(${FLAT} DriftFlush words 9223372036854775807 TRUE)
expect_rejected(${FLAT} IncrementMsg subround "\"x\"" FALSE)
# Ids and rounds fgm_report once sized a table by (std::bad_alloc, or
# std::length_error, and an abort).
expect_rejected(${FGMO} DriftFlush site 2000000000 TRUE)
expect_rejected(${FGMO} IncrementMsg site 1000000000 TRUE)
expect_rejected(${FGMO} SubroundStart round 4000000000 TRUE)
expect_rejected(${FGMO} PlanChosen round 9223372036854775807 TRUE)
expect_rejected(${TREE} DriftFlush tier 2000000000 TRUE)
# Rules that pair one event with another: a rejoin's resync words with
# the message that ships them, and a PlanOutcome's pred_gain with its
# PlanChosen's (which only fgm_report once compared).
expect_rejected(${REJOIN} SiteResync words 7 FALSE)
expect_rejected(${FGMO} PlanOutcome pred_gain 123.5 TRUE)
