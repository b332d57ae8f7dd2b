#!/usr/bin/env bash
# Runs every figure and table regeneration `parbs-sim --list` names (the
# analytic ones, which read no flags, first and with none; the rest at
# --quick) and compares the SHA-256 of each one's stdout with
# tests/golden/regenerations.txt. A regeneration that fails, whose stdout
# moved or that the golden file lacks is named; the script exits 1 after
# checking all.
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

# The regenerations section of --list: one `  name  description` line per
# regeneration, followed by a `      [--flag ...]` line when it reads flags.
# Line 1 gets the analytic names, line 2 the simulated ones, in list order.
names=$("$bin" --list | awk '
  /^regenerations/ { on = 1; next }
  !on { next }
  /^  [^ ]/ { if (name != "") analytic = analytic " " name; name = $1; next }
  /^      \[/ { if (name != "") simulated = simulated " " name; name = "" }
  END { if (name != "") analytic = analytic " " name; print analytic; print simulated }')
analytic=$(sed -n 1p <<<"$names")
simulated=$(sed -n 2p <<<"$names")
test -n "$analytic" && test -n "$simulated" \
  || { echo "$bin --list named no analytic or no simulated regenerations" >&2; exit 2; }

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
for n in $(grep -v '^#' "$golden" | cut -d' ' -f1); do
  case " $analytic $simulated " in
    *" $n "*) ;;
    *) echo "$n: in $golden but not in $bin --list" >&2; failed=1 ;;
  esac
done
test "$failed" -eq 0 && echo "all $(printf '%s' "$lines" | wc -l) regenerations match $golden"
exit "$failed"
