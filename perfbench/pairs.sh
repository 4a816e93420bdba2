#!/usr/bin/env bash
# Runs N paired benchmark runs of one workload on two checkouts, seed i for
# pair i, alternating which side runs first, and appends each side's output
# to parent.out and change.out in the current directory. Compare them with
#
#   bash perfbench/run.sh compare parent.out change.out
#
# usage: bash perfbench/pairs.sh PARENT_ROOT CHANGE_ROOT WORKLOAD N [SECONDS] [TRACE]
set -euo pipefail
if [ $# -lt 4 ]; then
	sed -n '2,8p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 n=$4 seconds=${5:-50} trace=${6:-0}
out=$(pwd)
one() { # root file seed
	(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace "$trace") >>"$out/$2"
}
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		one "$parent" parent.out "$i"
		one "$change" change.out "$i"
	else
		one "$change" change.out "$i"
		one "$parent" parent.out "$i"
	fi
done
