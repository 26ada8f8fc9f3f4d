#!/bin/sh
# Entry point named by BENCHMARK.json: the benchmark is its own Go module, so
# it has to be built from its own directory whatever the caller's is.
cd "$(dirname "$0")" && exec go run . "$@"
