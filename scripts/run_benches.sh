#!/usr/bin/env bash
# Runs every bench binary and merges their machine-readable result lines
# (one JSON object per measurement, starting with {"bench") into a single
# JSON array: an entry whose "bench" key was measured again is replaced in
# place, new keys are appended, and entries of benches not run this time
# are kept, so running a subset does not erase the rest of the record.
# Each entry written is stamped with the commit it measured
# ("commit": git rev-parse --short HEAD).
#
#   scripts/run_benches.sh [build_dir] [output_file] [bench...]
#
# Defaults: build_dir=build, output_file=BENCH_results.json, all binaries
# in <build_dir>/bench. Use a Release build for meaningful numbers:
#   cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-release -j
#   scripts/run_benches.sh build-release BENCH_results.json
set -u

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_results.json}"
shift $(( $# > 2 ? 2 : $# )) || true

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build the project first)" >&2
  exit 1
fi

if [ "$#" -gt 0 ]; then
  BENCHES=()
  for name in "$@"; do
    BENCHES+=("$BUILD_DIR/bench/$name")
  done
else
  BENCHES=("$BUILD_DIR"/bench/*)
fi

LINES_FILE="$(mktemp)"
trap 'rm -f "$LINES_FILE"' EXIT

failed=0
for bench in "${BENCHES[@]}"; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  echo "=== $name ===" >&2
  output="$("$bench" 2>&1)"
  status=$?
  printf '%s\n' "$output" >&2
  # Strip any ANSI escapes before matching, in case a binary colorized.
  printf '%s\n' "$output" | sed 's/\x1b\[[0-9;]*m//g' \
    | grep '^{"bench"' >> "$LINES_FILE" || true
  if [ "$status" -ne 0 ]; then
    echo "warning: $name exited nonzero ($status)" >&2
    failed=1
  fi
done

COMMIT="$(git -C "$(dirname "$0")" rev-parse --short HEAD 2>/dev/null \
  || echo unknown)"
python3 - "$OUT" "$LINES_FILE" "$COMMIT" <<'PY' || exit 1
import json
import os
import sys

out, lines_file, commit = sys.argv[1:4]
record = []
if os.path.exists(out):
    with open(out) as f:
        record = json.load(f)  # a corrupt record fails the run
index = {entry.get("bench"): i for i, entry in enumerate(record)}
with open(lines_file) as f:
    for line in f:
        entry = json.loads(line)
        entry["commit"] = commit
        if entry["bench"] in index:
            record[index[entry["bench"]]] = entry
        else:
            index[entry["bench"]] = len(record)
            record.append(entry)
with open(out, "w") as f:
    f.write("[\n")
    f.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in record))
    f.write("\n]\n")
PY

count="$(grep -c '^{"bench"' "$LINES_FILE" || true)"
echo "merged $count results into $OUT" >&2
exit "$failed"
