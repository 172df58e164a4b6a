#!/usr/bin/env sh
# loc.sh — print the repository's non-test Go line count, excluding the
# perfbench/ harness: the net-LoC figure the changelog tracks from
# change to change. Counts files tracked by git, so stage new files
# before comparing.
#
# Usage:
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' | xargs cat | wc -l
