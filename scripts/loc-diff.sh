#!/bin/sh
# loc-diff prints the non-test Go lines of every package at a base
# revision and in the working tree (tracked and untracked files), with
# the delta: ROADMAP's "net-negative non-test lines" made measurable.
# Lines are raw lines; what moved into tests, comments and density are
# for the reader of the diff to judge.
#
#	make loc-diff BASE=HEAD~1
set -eu
base=${1:?usage: loc-diff.sh BASE}
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "loc-diff: unknown revision $base" >&2; exit 2; }

# git grep -c '' prints path:lines for every file; the base side also
# leads with the revision.
{
	git grep -c '' "$base" -- '*.go' | sed 's/^[^:]*:/base:/'
	git grep -c --untracked '' -- '*.go' | sed 's/^/tree:/'
} | awk -F: '
	$2 ~ /_test\.go$/ { next }
	{
		dir = $2
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		n[$1, dir] += $3; seen[dir] = 1; total[$1] += $3
	}
	END {
		fmt = "%-34s %8s %8s %+7d\n"
		printf "%-34s %8s %8s %7s\n", "package", "base", "tree", "delta"
		for (dir in seen) printf fmt, dir, n["base", dir] + 0, n["tree", dir] + 0, n["tree", dir] - n["base", dir] | "sort"
		close("sort")
		printf fmt, "total", total["base"], total["tree"], total["tree"] - total["base"]
	}'
