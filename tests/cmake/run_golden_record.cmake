# Runs a figure binary and compares its stdout with a golden record.
#
# Numeric tokens may differ from the record by at most one unit of the
# record's last printed digit (e.g. 1.33 accepts 1.32 .. 1.34, 140
# accepts 139 .. 141); every other token must match exactly.  Runs of
# spaces and tabs only separate tokens — table padding follows value
# widths — while line breaks are compared like text.  A token is a
# word (letters, digits, underscores, starting with a letter or
# underscore), a number (optional minus sign, decimals, exponent), or
# any other single character.
#
# Usage:
#   cmake -DCMD=<exe> -DGOLDEN=<file> -P run_golden_record.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND "${CMD}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE got
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD}: exit code ${rc}\nstderr:\n${err}")
endif()
file(READ "${GOLDEN}" want)

set(number_re "-?([0-9]+(\\.[0-9]*)?|\\.[0-9]+)([eE][-+]?[0-9]+)?")

# Splits `text` into the token list `out`.  List separators and the
# bracket characters CMake's list parsing treats specially are spelled
# out first, so each list element is exactly one token.
function(tokenize text out)
  string(REPLACE ";" "<semicolon>" text "${text}")
  string(REPLACE "[" "<lbracket>" text "${text}")
  string(REPLACE "]" "<rbracket>" text "${text}")
  string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*|${number_re}|[^ \t\r]"
         tokens "${text}")
  set(${out} "${tokens}" PARENT_SCOPE)
endfunction()

# Sets `ok` to whether number `value` lies within one unit of the last
# digit of the recorded number `record`.
function(within_last_digit record value ok)
  string(REGEX MATCH "^(-?)([0-9]*)\\.?([0-9]*)[eE]?([-+]?[0-9]*)$" _
         "${record}")
  set(sign "${CMAKE_MATCH_1}")
  set(digits "${CMAKE_MATCH_2}${CMAKE_MATCH_3}")
  string(LENGTH "${CMAKE_MATCH_3}" decimals)
  set(exponent "${CMAKE_MATCH_4}")
  if(exponent STREQUAL "")
    set(exponent 0)
  endif()
  # record = sign * digits * 10^scale, one unit = 10^scale.
  math(EXPR scale "${exponent} - ${decimals}")
  string(REGEX MATCH "^0*([0-9]+)$" _ "${digits}")
  set(digits "${CMAKE_MATCH_1}")
  math(EXPR below "${sign}${digits} - 1")
  math(EXPR above "${sign}${digits} + 1")
  if("${value}" LESS "${below}e${scale}" OR
     "${value}" GREATER "${above}e${scale}")
    set(${ok} FALSE PARENT_SCOPE)
  else()
    set(${ok} TRUE PARENT_SCOPE)
  endif()
endfunction()

tokenize("${want}" want_tokens)
tokenize("${got}" got_tokens)
list(LENGTH want_tokens n_want)
list(LENGTH got_tokens n_got)

set(line 1)
set(failures "")
math(EXPR last "${n_want} - 1")
foreach(i RANGE ${last})
  list(GET want_tokens ${i} w)
  if(i GREATER_EQUAL n_got)
    string(APPEND failures "line ${line}: output ends before '${w}'\n")
    break()
  endif()
  list(GET got_tokens ${i} g)
  if(w MATCHES "^${number_re}$")
    if(NOT g MATCHES "^${number_re}$")
      set(ok FALSE)
    else()
      within_last_digit("${w}" "${g}" ok)
    endif()
  elseif(w STREQUAL g)
    set(ok TRUE)
  else()
    set(ok FALSE)
  endif()
  if(NOT ok)
    string(APPEND failures "line ${line}: got '${g}', record '${w}'\n")
    # Tokens after a structural mismatch are misaligned; stop there.
    if(NOT w MATCHES "^${number_re}$")
      break()
    endif()
  endif()
  if(w STREQUAL "\n")
    math(EXPR line "${line} + 1")
  endif()
endforeach()
if(failures STREQUAL "" AND NOT n_got EQUAL n_want)
  set(failures "output has ${n_got} tokens, record ${n_want}\n")
endif()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "${CMD}: stdout departs from the golden record ${GOLDEN}\n"
    "${failures}--- got ---\n${got}")
endif()
