#!/usr/bin/env bash
# cmp-parent.sh [REV] — byte-compare the CLI surfaces against a revision.
#
# Builds dredbox-report and dredbox-rack twice, at REV (default HEAD,
# exported with `git archive` into a temporary directory) and at the
# working tree, runs the same fixed list of report legs and rack tours
# with each build, and fails on any difference. A report leg records
# its report, every -artifacts file (.txt/.json/.csv) and its exit
# status, plus its stderr when it fails (a successful run's stderr
# carries wall-clock timing only). A tour records stdout, stderr and
# its exit status, so the tours that abort are compared by their error
# text. A refactor that claims to leave placement untouched runs this
# against its parent: `make cmp-parent REV=<parent>`.
set -euo pipefail

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
	{ echo "cmp-parent: unknown revision $rev" >&2; exit 2; }
mkdir -p "$work/src"
git -C "$root" archive "$rev" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/base/bin/" ./cmd/dredbox-report ./cmd/dredbox-rack)
(cd "$root" && go build -o "$work/tree/bin/" ./cmd/dredbox-report ./cmd/dredbox-rack)

# Report legs, one per line: a directory name, then the flags.
report_legs='
plain
batch                 -batch
pipeline2             -pipeline 2
batchsize1            -batch -batchsize 1
pods4-racks4          -pods 4 -racks 4
fig10pod-racks8       -only fig10pod -racks 8
fig10row-3x3          -only fig10row -pods 3 -racks 3
fig10row-3x3-batch    -only fig10row -pods 3 -racks 3 -batch
fig10-batchsize3      -only fig10pod,fig10row -batch -batchsize 3
fig10-pipeline3       -only fig10pod,fig10row -pipeline 3 -batchsize 5
fig10pod-racks1       -only fig10pod -racks 1
fig10row-pods1        -only fig10row -pods 1
fig10row-racks1       -only fig10row -pods 2 -racks 1
'

# Rack tours, in the same layout.
tours='
rack
rack-json                  -json
pod                        -racks 3
pod-rebalance              -racks 3 -rebalance
pod-burst8-drain           -racks 3 -burst 8 -drain
pod-burst8-drain-json      -racks 3 -burst 8 -drain -json
pod-burst8-pipeline2       -racks 3 -burst 8 -pipeline 2
row                        -pods 2
row-json                   -pods 2 -json
row-burst8-drain           -pods 2 -burst 8 -drain
row-burst8-drain-json      -pods 2 -burst 8 -drain -json
racks4-burst4-drain        -racks 4 -burst 4 -drain
racks4-burst4-pipeline2    -racks 4 -burst 4 -pipeline 2
racks4-burst4-drain-json   -racks 4 -burst 4 -drain -json
pods2x2-burst6-drain       -pods 2 -racks 2 -burst 6 -drain
pods2x2-burst6-pipeline2   -pods 2 -racks 2 -burst 6 -pipeline 2
pods2x2-burst6-drain-json  -pods 2 -racks 2 -burst 6 -drain -json
racks4-burst6-drain-pipe3  -racks 4 -burst 6 -drain -pipeline 3
pods3x2-burst6-drain-pipe3 -pods 3 -racks 2 -burst 6 -drain -pipeline 3
drain-without-burst        -drain
burst-without-pod          -burst 2
row-rebalance              -pods 2 -rebalance
'

run_side() {
	local side=$1 name flags dir status
	while read -r name flags; do
		[ -n "$name" ] || continue
		dir="$work/$side/out/report/$name"
		mkdir -p "$dir/artifacts"
		status=0
		# shellcheck disable=SC2086 # flags split on purpose
		"$work/$side/bin/dredbox-report" -artifacts "$dir/artifacts" -o "$dir/report.txt" $flags \
			2>"$dir/stderr" || status=$?
		echo "$status" >"$dir/exit"
		[ "$status" -ne 0 ] || rm "$dir/stderr"
	done <<<"$report_legs"
	while read -r name flags; do
		[ -n "$name" ] || continue
		dir="$work/$side/out/tour/$name"
		mkdir -p "$dir"
		status=0
		# shellcheck disable=SC2086
		"$work/$side/bin/dredbox-rack" $flags >"$dir/stdout" 2>"$dir/stderr" || status=$?
		echo "$status" >"$dir/exit"
	done <<<"$tours"
}

run_side base
run_side tree
if ! diff -r "$work/base/out" "$work/tree/out"; then
	echo "cmp-parent: the working tree's output differs from $rev" >&2
	exit 1
fi
echo "cmp-parent: $(find "$work/tree/out" -type f | wc -l) files identical to $rev"
