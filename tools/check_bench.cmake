# Bench regression gate: compares a fresh `bench_* --json` snapshot with
# its checked-in baseline (bench/baselines/) under the rules that baseline
# declares.
#
# Usage:
#   cmake -DCURRENT=<fresh.json> -DBASELINE=bench/baselines/<bench>.json
#         -P tools/check_bench.cmake
#
# The baseline's "gate" object maps info keys to a rule object with one or
# more of these fields (bench/baselines/README.md has the table and the
# reason for every rule):
#
#   min_pct  floor at baseline * (100 - min_pct) / 100
#   max_pct  ceiling at baseline * (100 + max_pct) / 100
#   abs      band of baseline +/- abs (0 = exact)
#   min      absolute floor
#   max      absolute ceiling (0 = hard zero)
#
# Every number is read as a fixed-point integer in millionths, so
# comparisons are exact in CMake's 64-bit math(): values must stay below
# 1e9 in magnitude, and the widest product (1e15 * 200) cannot overflow.
# CMake renders JSON numbers with %.17g, so any nonzero value below 1e-4
# arrives in scientific notation and is rejected, never read as zero.
#
# Every failing key is reported before the script exits nonzero. A
# baseline without "gate", a gated key missing from either snapshot, an
# unknown rule field and a bench name mismatch fail the gate too.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT DEFINED CURRENT OR NOT DEFINED BASELINE)
  message(FATAL_ERROR
    "usage: cmake -DCURRENT=<json> -DBASELINE=<json> -P check_bench.cmake")
endif()
file(READ "${CURRENT}" current_json)
file(READ "${BASELINE}" baseline_json)

# Sets <out> to the decimal <text> in millionths, rounded to nearest (so
# %.17g round-trip noise such as 0.19999999999999998 reads as 200000).
# Sets <out>_err to "" on success; on a malformed or out-of-range value
# sets <out> to "" and <out>_err to the reason.
function(to_micro out text)
  set(${out} "" PARENT_SCOPE)
  set(${out}_err "" PARENT_SCOPE)
  if(NOT text MATCHES "^(-?)([0-9]+)(\\.([0-9]+))?$")
    set(${out}_err "not a plain decimal: ${text}" PARENT_SCOPE)
    return()
  endif()
  set(sign "${CMAKE_MATCH_1}")
  set(int_part "${CMAKE_MATCH_2}")
  string(LENGTH "${int_part}" digits)
  if(digits GREATER 9)
    set(${out}_err "out of range (|value| >= 1e9): ${text}" PARENT_SCOPE)
    return()
  endif()
  string(SUBSTRING "${CMAKE_MATCH_4}0000000" 0 6 frac)
  string(SUBSTRING "${CMAKE_MATCH_4}0000000" 6 1 next_digit)
  set(round_up 0)
  if(next_digit GREATER 4)
    set(round_up 1)
  endif()
  math(EXPR v "${sign}(${int_part} * 1000000 + ${frac} + ${round_up})")
  set(${out} "${v}" PARENT_SCOPE)
endfunction()

set(failed "")
# Reports one failing check on `key` and keeps going.
macro(fail reason)
  message(SEND_ERROR "${key}: ${reason}")
  list(APPEND failed "${key}")
endmacro()

string(JSON current_bench GET "${current_json}" bench)
string(JSON bench GET "${baseline_json}" bench)
if(NOT current_bench STREQUAL bench)
  set(key bench)
  fail("CURRENT is '${current_bench}' but BASELINE is '${bench}'")
endif()
string(JSON rule_count ERROR_VARIABLE err LENGTH "${baseline_json}" gate)
if(err OR rule_count EQUAL 0)
  message(FATAL_ERROR "${BASELINE} declares no \"gate\" rules: ${err}")
endif()

math(EXPR last_rule "${rule_count} - 1")
foreach(i RANGE ${last_rule})
  string(JSON key MEMBER "${baseline_json}" gate ${i})
  string(JSON cur_text ERROR_VARIABLE no_cur GET "${current_json}" info "${key}")
  string(JSON base_text ERROR_VARIABLE no_base GET "${baseline_json}" info "${key}")
  if(no_cur)
    fail("missing from CURRENT info")
  endif()
  if(no_base)
    fail("missing from BASELINE info")
  endif()
  if(no_cur OR no_base)
    continue()
  endif()
  to_micro(cur "${cur_text}")
  to_micro(base "${base_text}")
  if(cur STREQUAL "" OR base STREQUAL "")
    fail("${cur_err}${base_err}")
    continue()
  endif()

  string(JSON field_count LENGTH "${baseline_json}" gate "${key}")
  math(EXPR last_field "${field_count} - 1")
  foreach(j RANGE ${last_field})
    string(JSON field MEMBER "${baseline_json}" gate "${key}" ${j})
    string(JSON arg GET "${baseline_json}" gate "${key}" "${field}")
    set(lo "")
    set(hi "")
    if(field MATCHES "^(min|max)_pct$")
      if(NOT arg MATCHES "^[0-9]+$" OR arg GREATER 100)
        fail("${field} must be a whole percent in [0, 100], got ${arg}")
        continue()
      endif()
      if(field STREQUAL "min_pct")
        math(EXPR lo "${base} * (100 - ${arg}) / 100")
      else()
        math(EXPR hi "${base} * (100 + ${arg}) / 100")
      endif()
    elseif(field MATCHES "^(abs|min|max)$")
      to_micro(bound "${arg}")
      if(bound STREQUAL "")
        fail("${field}: ${bound_err}")
        continue()
      elseif(field STREQUAL "abs")
        math(EXPR lo "${base} - ${bound}")
        math(EXPR hi "${base} + ${bound}")
      elseif(field STREQUAL "min")
        set(lo ${bound})
      else()
        set(hi ${bound})
      endif()
    else()
      fail("unknown rule field '${field}'")
      continue()
    endif()
    if((NOT lo STREQUAL "" AND cur LESS lo) OR
       (NOT hi STREQUAL "" AND cur GREATER hi))
      fail("${cur_text} violates ${field} ${arg} (baseline ${base_text})")
    endif()
  endforeach()
  if(NOT key IN_LIST failed)
    message(STATUS "${key}: ${cur_text} (baseline ${base_text}) ok")
  endif()
endforeach()

if(NOT failed STREQUAL "")
  list(REMOVE_DUPLICATES failed)
  list(LENGTH failed n)
  message(FATAL_ERROR "${bench} gate failed on ${n} key(s): ${failed}")
endif()
message(STATUS "${bench} gate passed (${rule_count} rules)")
