#!/usr/bin/env bash
# Runs the 21 figure and table regenerations (the five analytic ones with
# no flags, the rest at --quick) and compares the SHA-256 of each one's
# stdout with tests/golden/regenerations.txt. A regeneration that fails,
# or whose stdout moved, is named; the script exits 1 after checking all.
#
#   .github/regenerations.sh            # check against the golden file
#   .github/regenerations.sh --record   # rewrite the golden file
#
# Re-record only when a change is meant to move a regeneration's output,
# and name each re-recorded regeneration in CHANGES.md. PARBS_SIM names
# the binary (default target/release/parbs-sim).
set -uo pipefail
bin=${PARBS_SIM:-target/release/parbs-sim}
golden=tests/golden/regenerations.txt
record=false
case "${1:-}" in
  --record) record=true ;;
  "") ;;
  *) echo "usage: $0 [--record]" >&2; exit 2 ;;
esac
test -x "$bin" || { echo "$bin is not built (cargo build --release -p parbs-sim)" >&2; exit 2; }

analytic="fig01_overlap fig02_parallelism fig03_batch_abstract table1_cost table2_config"
simulated="fig05_case1 fig06_case2 fig07_case3 fig08_4core_avg fig09_8core fig10_16core
  fig11_marking_cap fig12_batching_choice fig13_within_batch fig14_priorities
  table3_benchmarks table4_summary ext_schedulers ext_param_sweep ext_latency_tail ext_zoo"

lines=""
failed=0
for n in $analytic $simulated; do
  flags=--quick
  case " $analytic " in *" $n "*) flags= ;; esac
  # shellcheck disable=SC2086 # $flags is empty or one word
  if ! sum=$("$bin" "$n" $flags | sha256sum | cut -d' ' -f1); then
    echo "$n: exited with an error" >&2
    failed=1
    continue
  fi
  lines+="$n $sum"$'\n'
  if ! $record; then
    want=$(grep "^$n " "$golden" | cut -d' ' -f2)
    if [ -z "$want" ]; then
      echo "$n: not in $golden (record it with --record)" >&2
      failed=1
    elif [ "$want" != "$sum" ]; then
      echo "$n: stdout moved: golden $want, got $sum" >&2
      failed=1
    fi
  fi
done

if $record; then
  if [ "$failed" -ne 0 ]; then
    echo "not recording: a regeneration failed" >&2
    exit 1
  fi
  {
    echo "# SHA-256 of each regeneration's stdout (.github/regenerations.sh)."
    echo "# Rewrite with --record only when output is meant to change."
    printf '%s' "$lines"
  } > "$golden"
  echo "recorded $(printf '%s' "$lines" | wc -l) regenerations in $golden"
  exit 0
fi
if [ "$(grep -vc '^#' "$golden")" -ne "$(printf '%s' "$lines" | wc -l)" ]; then
  echo "$golden names regenerations this script does not run" >&2
  failed=1
fi
test "$failed" -eq 0 && echo "all $(printf '%s' "$lines" | wc -l) regenerations match $golden"
exit "$failed"
