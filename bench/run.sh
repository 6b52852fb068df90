#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  The arguments
# are passed through: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Everything it writes stays inside this directory: the binary, the Go build
# cache and the toolchain's scratch and config files under .build/, spans and
# records under out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/webcache-bench" .)
exec "$build/webcache-bench" -out "$here/out" "$@"
