#!/bin/sh
# Non-test Go lines per package of the root module (the CI lint job's `loc`
# step), then their total: the count a ROADMAP re-anchor quotes, so that a
# simplification's before and after are one command apart. bench/ is a
# module of its own and is left out, as are test files and testdata. It
# prints only; there is no ceiling.
#
#   ./ci/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . \( -path ./bench -o -path ./.git -o -name testdata \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1; sum += $1
	}
	END {
		for (dir in lines) printf "%6d  %s\n", lines[dir], dir
		printf "%6d  total\n", sum
	}' |
	sort -k2
