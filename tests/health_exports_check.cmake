# Checks the live health exports of a runner run with the monitor on, and
# fails unless:
#  * every non-comment line of the Prometheus exposition PROM has the form
#    `name[{labels}] value`, and all of the value token is a number;
#  * the exposition carries the fgm_rounds_total, fgm_words_total,
#    fgm_alerts_raised_total and fgm_site_down families;
#  * the JSONL heartbeat file LIVE holds at least one line, and every line
#    parses as JSON with "records" and "alerts_active".
#
#   cmake -DPROM=health.prom -DLIVE=live.jsonl -P health_exports_check.cmake

# A value is a decimal number, or nan/inf in any case (%.17g prints a
# non-finite gauge that way).
set(decimal "([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][-+]?[0-9]+)?")
set(special "[Nn][Aa][Nn]|[Ii][Nn][Ff]([Ii][Nn][Ii][Tt][Yy])?")
set(number "[-+]?(${decimal}|${special})")
file(STRINGS ${PROM} lines)
set(families "")
foreach(line IN LISTS lines)
  if(line MATCHES "^#")
    continue()
  endif()
  if(NOT line MATCHES "^([a-zA-Z_:][a-zA-Z0-9_:]*)(\\{[^{}]*\\})? (${number})$")
    message(FATAL_ERROR "${PROM}: malformed exposition line '${line}'")
  endif()
  list(APPEND families ${CMAKE_MATCH_1})
endforeach()
foreach(want fgm_rounds_total fgm_words_total fgm_alerts_raised_total
        fgm_site_down)
  list(FIND families ${want} index)
  if(index EQUAL -1)
    message(FATAL_ERROR "${PROM}: missing metric family ${want}")
  endif()
endforeach()

file(STRINGS ${LIVE} beats)
list(LENGTH beats count)
if(count EQUAL 0)
  message(FATAL_ERROR "${LIVE}: no heartbeats")
endif()
foreach(beat IN LISTS beats)
  foreach(key records alerts_active)
    string(JSON value ERROR_VARIABLE error GET "${beat}" ${key})
    if(error)
      message(FATAL_ERROR "${LIVE}: heartbeat without ${key}: ${error}")
    endif()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES families)
list(LENGTH families family_count)
message(STATUS "${family_count} metric families, ${count} heartbeats")
