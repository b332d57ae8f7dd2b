#!/usr/bin/env bash
# Prints every scheduler `parbs-sim` knows, space-separated, read from the
# `[--sched A|B|...]` placeholder of `parbs-sim --list`. Fails when the list
# is empty (a failed build included), so a loop over it can never pass by
# running nothing.
#
#   scheds=$(.github/list-schedulers.sh)
scheds=$(cargo run --release -p parbs-sim -- --list \
  | grep -o -- '\[--sched [^]]*\]' | sort -u | tr -d '[]' | cut -d' ' -f2 | tr '|' ' ')
test -n "$scheds" || { echo "parbs-sim --list named no schedulers" >&2; exit 1; }
echo "$scheds"
