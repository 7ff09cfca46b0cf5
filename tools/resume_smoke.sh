#!/usr/bin/env bash
# Kill/resume smoke for one campaign: run it clean, run it again and kill
# it as soon as its first cell is on disk, resume the killed store, and
# require the result to be byte-identical to the clean store.
#
# Usage: bash tools/resume_smoke.sh OUT_DIR SURVEY_ARGS...
# Leaves OUT_DIR/clean and OUT_DIR/resumed behind for further checks.
set -euo pipefail
out=$1
shift

python -m repro survey "$@" --out "$out/clean"

# Own process group (setsid), so the kill reaches the shard workers too.
setsid python -m repro survey "$@" --out "$out/resumed" &
pid=$!
until [ -n "$(find "$out/resumed/cells" -name '*.json' 2>/dev/null | head -n 1)" ]; do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
kill -KILL -- "-$pid" 2>/dev/null || true
wait "$pid" || true

clean=$(find "$out/clean/cells" -name '*.json' | wc -l)
killed=$(find "$out/resumed/cells" -name '*.json' | wc -l)
echo "cells saved before the kill: $killed of $clean"
if [ "$killed" -ge "$clean" ]; then
  echo "the kill landed after the campaign had finished: nothing was left to resume" >&2
  exit 1
fi

python -m repro survey "$@" --out "$out/resumed" --resume
diff -r "$out/clean" "$out/resumed"
