# Self-test of the bench regression gate (tools/check_bench.cmake). Invoked
# by ctest as
#   cmake -DGATE=<check_bench.cmake> -DBASELINES=<bench/baselines>
#         -DWORK=<scratch dir> -P gate_selftest.cmake
#
# 1. Pins each baseline's "gate" to the rules below, so a rule cannot be
#    dropped or loosened without editing this file too.
# 2. Gates every baseline against itself (must pass).
# 3. For every rule field, sets that one key exactly on its bound (must
#    pass) and 0.0001 beyond it (must fail, naming the key and the field).
# 4. Feeds the malformed cases the gate must refuse: a baseline without
#    "gate", a key missing from either side, a bench mismatch, an unknown
#    rule field, scientific notation, and a tiny nonzero hard-zero value.
# Every problem is reported before the script exits nonzero.
cmake_minimum_required(VERSION 3.19)
if(NOT DEFINED GATE OR NOT DEFINED BASELINES OR NOT DEFINED WORK)
  message(FATAL_ERROR "usage: cmake -DGATE=<gate> -DBASELINES=<dir> "
                      "-DWORK=<dir> -P gate_selftest.cmake")
endif()
file(MAKE_DIRECTORY "${WORK}")

set(rules_bench_kernel_hotpath [=[{
  "events_per_sec": {"min_pct": 10}, "rounds_per_sec": {"min_pct": 10},
  "symptoms_per_sec": {"min_pct": 10}, "allocs_per_event": {"max": 0},
  "allocs_per_round": {"max": 0}, "cluster_allocs_per_round": {"max": 0},
  "allocs_per_symptom": {"max_pct": 10}}]=])
set(rules_bench_hierarchy_scaling [=[{
  "scale_convicted": {"abs": 0}, "kill_convicted": {"abs": 0},
  "flagship_converged": {"abs": 0}, "frus": {"abs": 0},
  "msgs_per_round_8": {"min_pct": 15, "max_pct": 15},
  "msgs_per_round_16": {"min_pct": 15, "max_pct": 15},
  "msgs_per_round_32": {"min_pct": 15, "max_pct": 15},
  "msgs_per_round_64": {"min_pct": 15, "max_pct": 15},
  "detect_rounds_8": {"min_pct": 15, "max_pct": 15},
  "detect_rounds_16": {"min_pct": 15, "max_pct": 15},
  "detect_rounds_32": {"min_pct": 15, "max_pct": 15},
  "detect_rounds_64": {"min_pct": 15, "max_pct": 15}}]=])
set(rules_bench_bitfault [=[{
  "tx_rounds_per_sec": {"min_pct": 10}, "allocs_per_round": {"max": 0},
  "orphan_flips": {"max": 0}}]=])
set(rules_bench_fleet [=[{
  "vehicle_epochs_per_sec": {"min_pct": 15},
  "campaign_vehicles_per_sec": {"min_pct": 15}, "steady_allocs": {"max": 0},
  "nff_naive": {"abs": 0.05}, "nff_guided": {"abs": 0.05},
  "infant_over_valley": {"min": 2}, "wearout_over_valley": {"min": 2},
  "sw_head_share": {"min": 0.5}}]=])

# Runs the gate on <current>/<baseline> JSON texts. "pass" expects exit 0;
# "fail" expects a nonzero exit whose output matches <pattern>.
function(expect verdict label current baseline pattern)
  file(WRITE "${WORK}/current.json" "${current}")
  file(WRITE "${WORK}/baseline.json" "${baseline}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" "-DCURRENT=${WORK}/current.json"
            "-DBASELINE=${WORK}/baseline.json" -P "${GATE}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  # CMake wraps message text at a fixed width, and the file paths in it
  # move the line breaks; judge the text with every run of whitespace
  # collapsed to one space, so the verdict does not depend on the path.
  string(REGEX REPLACE "[ \t\r\n]+" " " out "${out}")
  if(verdict STREQUAL "pass" AND rc EQUAL 0)
    return()
  elseif(verdict STREQUAL "fail" AND NOT rc EQUAL 0 AND out MATCHES "${pattern}")
    return()
  endif()
  message(SEND_ERROR "${label}: expected ${verdict} (${pattern}), "
                     "gate exited ${rc}:\n${out}")
endfunction()

# The test's own decimal <-> millionths conversions (round to nearest).
function(micro out text)
  string(REGEX MATCH "^([0-9]+)\\.?([0-9]*)$" _ "${text}")
  string(SUBSTRING "${CMAKE_MATCH_2}0000000" 0 7 frac7)
  math(EXPR v "(${CMAKE_MATCH_1} * 10000000 + ${frac7} + 5) / 10")
  set(${out} ${v} PARENT_SCOPE)
endfunction()
function(decimal out value)
  set(sign "")
  if(value LESS 0)
    set(sign "-")
    math(EXPR value "-(${value})")
  endif()
  math(EXPR whole "${value} / 1000000")
  math(EXPR frac "${value} % 1000000 + 1000000")
  string(SUBSTRING "${frac}" 1 6 frac)
  set(${out} "${sign}${whole}.${frac}" PARENT_SCOPE)
endfunction()

# Sets one key of a snapshot to the millionths <value> and runs the gate.
function(expect_at verdict bench key value field)
  decimal(text ${value})
  string(JSON cur SET "${baseline}" info "${key}" "${text}")
  expect(${verdict} "${bench}.${key} = ${text} (${field})" "${cur}"
         "${baseline}" "${key}: -?[0-9.]+[ \n]+violates[ \n]+${field}")
endfunction()

set(rule_total 0)
foreach(bench bench_kernel_hotpath bench_hierarchy_scaling bench_bitfault
              bench_fleet)
  file(READ "${BASELINES}/${bench}.json" baseline)
  string(JSON gate ERROR_VARIABLE err GET "${baseline}" gate)
  string(JSON same ERROR_VARIABLE err EQUAL "${gate}" "${rules_${bench}}")
  if(NOT same)
    message(SEND_ERROR "${bench}: gate differs from the pinned rules:\n${gate}")
    continue()
  endif()
  expect(pass "${bench} against itself" "${baseline}" "${baseline}" "")

  string(JSON rule_count LENGTH "${gate}")
  math(EXPR rule_total "${rule_total} + ${rule_count}")
  math(EXPR last_rule "${rule_count} - 1")
  foreach(i RANGE ${last_rule})
    string(JSON key MEMBER "${gate}" ${i})
    string(JSON base_text GET "${baseline}" info "${key}")
    micro(base "${base_text}")
    string(JSON field_count LENGTH "${gate}" "${key}")
    math(EXPR last_field "${field_count} - 1")
    foreach(j RANGE ${last_field})
      string(JSON field MEMBER "${gate}" "${key}" ${j})
      string(JSON arg GET "${gate}" "${key}" "${field}")
      micro(arg_micro "${arg}")
      set(floors "")
      set(ceilings "")
      if(field STREQUAL "min_pct")
        math(EXPR floors "${base} * (100 - ${arg}) / 100")
      elseif(field STREQUAL "max_pct")
        math(EXPR ceilings "${base} * (100 + ${arg}) / 100")
      elseif(field STREQUAL "abs")
        math(EXPR floors "${base} - ${arg_micro}")
        math(EXPR ceilings "${base} + ${arg_micro}")
      elseif(field STREQUAL "min")
        set(floors ${arg_micro})
      else()
        set(ceilings ${arg_micro})
      endif()
      foreach(edge ${floors})
        math(EXPR below "${edge} - 100")
        expect_at(pass ${bench} ${key} ${edge} ${field})
        expect_at(fail ${bench} ${key} ${below} ${field})
      endforeach()
      foreach(edge ${ceilings})
        math(EXPR above "${edge} + 100")
        expect_at(pass ${bench} ${key} ${edge} ${field})
        expect_at(fail ${bench} ${key} ${above} ${field})
      endforeach()
    endforeach()
  endforeach()
endforeach()
if(NOT rule_total EQUAL 30)
  message(SEND_ERROR "expected 30 gated keys and fields in all, found ${rule_total}")
endif()

# Malformed input, on the kernel hot-path baseline.
file(READ "${BASELINES}/bench_kernel_hotpath.json" baseline)
string(JSON no_gate REMOVE "${baseline}" gate)
expect(fail "baseline without gate" "${baseline}" "${no_gate}"
       "declares no \"gate\"")
string(JSON cut REMOVE "${baseline}" info events_per_sec)
expect(fail "key missing from CURRENT" "${cut}" "${baseline}"
       "events_per_sec: missing from CURRENT")
expect(fail "key missing from BASELINE" "${baseline}" "${cut}"
       "events_per_sec: missing from BASELINE")
string(JSON other SET "${baseline}" bench [["bench_fleet"]])
expect(fail "bench mismatch" "${other}" "${baseline}" "bench: CURRENT is")
string(JSON typo SET "${baseline}" gate events_per_sec [[{"min_pc": 10}]])
expect(fail "unknown rule field" "${baseline}" "${typo}"
       "unknown rule field 'min_pc'")
string(JSON huge SET "${baseline}" info events_per_sec 1e20)
expect(fail "scientific notation on a floor" "${huge}" "${baseline}"
       "events_per_sec: not a plain decimal")
string(JSON tiny SET "${baseline}" info allocs_per_event 0.00001)
expect(fail "scientific notation on a hard zero" "${tiny}" "${baseline}"
       "allocs_per_event: not a plain decimal")
string(JSON tiny SET "${baseline}" info allocs_per_event 0.005)
expect(fail "0.005 on a hard zero" "${tiny}" "${baseline}"
       "allocs_per_event: 0.005[0-9]*[ \n]+violates[ \n]+max")
string(JSON two SET "${baseline}" info events_per_sec 1)
string(JSON two SET "${two}" info allocs_per_round 1)
expect(fail "every failing key reported" "${two}" "${baseline}"
       "allocs_per_round: 1 .*events_per_sec: 1 .*failed on 2 key")
