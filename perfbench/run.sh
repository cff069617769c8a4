#!/usr/bin/env bash
# Builds the benchmark and lejitd from this checkout's sources, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload impute-batch --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, the trained model) stays
# under perfbench/.cache. A source change triggers a rebuild.
set -euo pipefail
root=$(pwd)
cache="$root/perfbench/.cache"
mkdir -p "$cache/bin"
export GOCACHE="$cache/gocache" GOPATH="$cache/gopath" GOTMPDIR="$cache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
stamp=$(cat "$root/go.mod" $(find "$root/perfbench" "$root/internal" "$root/cmd/lejitd" -path "$cache" -prune -o \( -name '*.go' -o -name go.mod \) -print | sort) | sha256sum | cut -c1-16)
if [ ! -x "$cache/bin/perfbench" ] || [ ! -x "$cache/bin/lejitd" ] || [ "$(cat "$cache/bin/stamp" 2>/dev/null)" != "$stamp" ]; then
	(cd "$root/perfbench" && go build -o "$cache/bin/perfbench" .) >&2
	(cd "$root" && go build -o "$cache/bin/lejitd" ./cmd/lejitd) >&2
	echo "$stamp" >"$cache/bin/stamp"
fi
exec "$cache/bin/perfbench" -lejitd "$cache/bin/lejitd" -cache "$cache" "$@"
