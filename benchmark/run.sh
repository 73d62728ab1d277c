#!/bin/sh
# The driver's entry point: build the benchmark from source inside the
# checkout (Go's caches included, so nothing is read or written elsewhere),
# then run it with the driver's flags. From a person's shell,
# `go run ./benchmark` does the same with the usual caches.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
