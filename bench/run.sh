#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the program (see README.md). Run from the repository root:
#
#   bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa] [-json]
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the current directory, so a run writes nothing
# outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

# The module imports flexrpc/internal/... through `replace flexrpc => ../`:
# without the repository around it this fails, as it should.
go build -C "$here" -o "$build/flexbench" .
exec "$build/flexbench" "$@"
