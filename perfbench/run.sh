#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload race-observed --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOPROXY=off GOSUMDB=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

if [ -e "$root/.git" ] && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
  commit=$(git -C "$root" rev-parse HEAD)
else
  commit="src-sha256:$(find "$root" -path "$root/.bench_build" -prune -o \
    \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort |
    xargs sha256sum | sed "s#$root/##" | sha256sum | cut -c1-16)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --spans-dir "$out" "$@"
