#!/bin/sh
# Docs-vs-experiments consistency check (the CI lint job's `docs` step).
#
# The repo's documentation has drifted before (README advertising "E1–E13"
# while the suite had grown past it), so this script makes the claim
# checkable:
#
#   1. Every experiment id written in README.md or EXPERIMENTS.md (any
#      `E<n>` word) must have a recorded `## E<n> — ...` section in
#      EXPERIMENTS.md. Referencing an experiment with no recorded numbers
#      fails the build — unimplemented ids must not be named as
#      experiments in these files.
#   2. EXPERIMENTS.md's sections must appear in ascending numeric order,
#      and each must be listed in the Index table at the top.
#   3. Every experiment gated in ci/bench_baseline.json (any `e<n>.metric`
#      bound, i.e. a BENCH_E<n>.json report the bench-trend job publishes)
#      must have a recorded `## E<n> — ...` section in EXPERIMENTS.md: a
#      benchmark CI enforces but the docs never explain is drift too.
#   4. Every experiment id passed to tcbench (`-run` or `-experiment`, and
#      the default `-run` set in cmd/tcbench/main.go) in README.md,
#      EXPERIMENTS.md, the CI workflow or cmd/tcbench/main.go must be listed
#      by ExperimentIDs() in internal/sim/sim.go, so a command line naming a
#      deleted experiment fails here instead of at its first run.
set -eu
cd "$(dirname "$0")/.."

sections=$(grep -oE '^## E[0-9]+ ' EXPERIMENTS.md | sed -E 's/^## (E[0-9]+) /\1/')
refs=$(grep -ohE '\bE[0-9]+\b' README.md EXPERIMENTS.md | sort -u)

fail=0
for id in $refs; do
  if ! printf '%s\n' "$sections" | grep -qx "$id"; then
    echo "FAIL: $id is referenced in README.md/EXPERIMENTS.md but EXPERIMENTS.md has no '## $id — ...' section"
    fail=1
  fi
done

prev=0
for id in $sections; do
  n=${id#E}
  if [ "$n" -le "$prev" ]; then
    echo "FAIL: EXPERIMENTS.md section $id is out of numeric order (follows E$prev)"
    fail=1
  fi
  prev=$n
  if ! grep -qE "^\| \[$id\]\(#" EXPERIMENTS.md; then
    echo "FAIL: EXPERIMENTS.md section $id is missing from the Index table"
    fail=1
  fi
done

gated=$(grep -ohE '"e[0-9]+\.' ci/bench_baseline.json | sed -E 's/"e([0-9]+)\./E\1/' | sort -u)
for id in $gated; do
  if ! printf '%s\n' "$sections" | grep -qx "$id"; then
    echo "FAIL: $id is gated in ci/bench_baseline.json (BENCH_$id.json) but EXPERIMENTS.md has no '## $id — ...' section"
    fail=1
  fi
done

known=$(sed -n '/^func ExperimentIDs/,/^}/p' internal/sim/sim.go | grep -oE '"[a-z0-9]+"' | tr -d '"')
passed=$( (grep -hE 'tcbench' README.md EXPERIMENTS.md .github/workflows/ci.yml cmd/tcbench/main.go |
  grep -oE -- '-(run|experiment)[ =][A-Za-z0-9,]+' | sed -E 's/^-(run|experiment)[ =]//'
  grep -oE 'run = "[a-z0-9,]+"' cmd/tcbench/main.go | sed -E 's/^run = "(.*)"$/\1/') |
  tr ',' '\n' | tr 'A-Z' 'a-z' | grep -vx 'all' | sort -u)
for id in $passed; do
  if ! printf '%s\n' "$known" | grep -qx "$id"; then
    echo "FAIL: tcbench is given experiment '$id', which ExperimentIDs() in internal/sim/sim.go does not list"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs check: $(printf '%s\n' "$sections" | wc -l | tr -d ' ') experiment sections consistent with references and index"
