#!/usr/bin/env bash
# Builds pmc_bench from this checkout and runs it with the given arguments,
# e.g.  bash bench/pmcbench/run.sh --workload fig8_mesh256 --seed 1 --seconds 15 --trace 0
#
# The build directory is $CARGO_TARGET_DIR, else .bench_build, relative to
# the working directory. Build output goes to stderr, so the last line of
# stdout is pmc_bench's JSON result; a failed build exits non-zero without
# printing one.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
# The compiler's temporary files stay inside the build directory too.
mkdir -p "$build/tmp"
export TMPDIR="$(cd "$build/tmp" && pwd)"
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target pmc_bench -j 4 >&2
exec "$build/pmc_bench" "$@"
