#!/usr/bin/env bash
# Builds routebench from source into .bench_build/ and runs it. Run from
# the root of a checkout, with routebench's own flags:
#
#   bash routebench/run.sh --workload wire-small --seed 1 --seconds 55 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# Stamp the commit only from a git work tree rooted here; never look
# above the checkout for one.
vcs=false
[ -e .git ] && vcs=auto
(cd routebench && go build -buildvcs="$vcs" -o "$out/routebench" .)
exec "$out/routebench" "$@"
