# Cuts a finished runner trace short three ways and fails unless
# trace_check rejects every cut with exit status 1 (while accepting the
# whole trace with 0): an empty file, a prefix of whole lines, and the
# whole trace without its final RunEnd line. It also rejects the whole
# trace with its first MsgSent word count made into a number that does
# not parse in full ("words":300 → "words":300-0).
#
#   cmake -DTRACE_CHECK=path/to/trace_check -DTRACE=trace.jsonl \
#         -DOUT_DIR=some/dir -P trace_check_truncated.cmake
function(expect_status file expect)
  execute_process(COMMAND ${TRACE_CHECK} ${file}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT "${status}" STREQUAL "${expect}")
    message(FATAL_ERROR
            "${file}: exit status '${status}', expected ${expect}\n"
            "${out}${err}")
  endif()
endfunction()

expect_status(${TRACE} 0)
file(READ ${TRACE} full)

set(empty ${OUT_DIR}/truncated_empty.jsonl)
file(WRITE ${empty} "")
expect_status(${empty} 1)

# The first whole lines of the trace, cut at a line boundary.
string(SUBSTRING "${full}" 0 20000 head)
string(FIND "${head}" "\n" cut REVERSE)
math(EXPR cut "${cut} + 1")
string(SUBSTRING "${head}" 0 ${cut} head)
set(prefix ${OUT_DIR}/truncated_prefix.jsonl)
file(WRITE ${prefix} "${head}")
expect_status(${prefix} 1)

# Everything but the last line, the RunEnd event.
string(LENGTH "${full}" length)
math(EXPR body_length "${length} - 1")
string(SUBSTRING "${full}" 0 ${body_length} body)
string(FIND "${body}" "\n" cut REVERSE)
math(EXPR cut "${cut} + 1")
string(SUBSTRING "${body}" 0 ${cut} body)
string(FIND "${full}" "\"RunEnd\"" run_end REVERSE)
if(run_end LESS cut)
  message(FATAL_ERROR "${TRACE}: last line is not the RunEnd event")
endif()
set(no_run_end ${OUT_DIR}/truncated_no_run_end.jsonl)
file(WRITE ${no_run_end} "${body}")
expect_status(${no_run_end} 1)

# The whole trace with one malformed number: a reader that kept the
# parsed prefix (300 of 300-0) would certify it.
string(REGEX MATCH "\"ev\":\"MsgSent\"[^\n]*\"words\":[0-9]+" sent "${full}")
if(sent STREQUAL "")
  message(FATAL_ERROR "${TRACE}: no MsgSent event")
endif()
string(FIND "${full}" "${sent}" at)
string(LENGTH "${sent}" sent_length)
math(EXPR at "${at} + ${sent_length}")
string(SUBSTRING "${full}" 0 ${at} before)
string(SUBSTRING "${full}" ${at} -1 after)
set(bad_number ${OUT_DIR}/malformed_number.jsonl)
file(WRITE ${bad_number} "${before}-0${after}")
expect_status(${bad_number} 1)
