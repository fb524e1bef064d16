#!/usr/bin/env bash
# Crash/recover smoke test: the README's "Crash-safe serving" recipe.
#
#   1. An uninterrupted journaled run of spec_infer is the reference.
#   2. The same run dies at iteration 20 (--crash-after, exit 3),
#      leaving the journal and the last snapshot (<journal>.snap).
#   3. A --recover run rebuilds from snapshot + journal tail,
#      appends to the same journal, and finishes the interrupted
#      requests.
#   4. The union of both runs' --verbose result lines (header with
#      step counts, then tokens) must equal the reference's. The
#      snapshot size is printed: it holds decisions and cache
#      lengths, no KV rows, so it stays near the journal's size.
#   5. The journal still begins with the crash run's bytes, and the
#      whole file replays token-identically (diffcheck
#      --replay-journal).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/spec-infer-crash-smoke-XXXXXX")
trap 'rm -rf "$WORK"' EXIT
FLAGS=(--num-prompts 8 --batch 4 --snapshot-every 4 --verbose)
results() { grep -hE '^\[prompt |^  tokens:' "$@" || true; }

"$BUILD/tools/spec_infer" "${FLAGS[@]}" --journal "$WORK/ref.wal" \
    > "$WORK/ref.out"

rc=0
"$BUILD/tools/spec_infer" "${FLAGS[@]}" --journal "$WORK/w.wal" \
    --crash-after 20 > "$WORK/crash.out" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: --crash-after run exited $rc, expected 3" >&2
    exit 1
fi
snap_bytes=$(wc -c < "$WORK/w.wal.snap")
wal_bytes=$(wc -c < "$WORK/w.wal")
cp "$WORK/w.wal" "$WORK/crash.wal"
"$BUILD/tools/spec_infer" "${FLAGS[@]}" --journal "$WORK/w.wal" \
    --recover > "$WORK/recover.out"

results "$WORK/ref.out" > "$WORK/want"
results "$WORK/crash.out" "$WORK/recover.out" > "$WORK/got"
if [ "$(grep -c '^  tokens:' "$WORK/want")" -ne 8 ]; then
    echo "FAIL: reference run printed no results for 8 prompts" >&2
    exit 1
fi
if ! diff -u "$WORK/want" "$WORK/got"; then
    echo "FAIL: crash + recover differs from the uninterrupted run" >&2
    exit 1
fi
if ! cmp -n "$wal_bytes" "$WORK/crash.wal" "$WORK/w.wal"; then
    echo "FAIL: --recover rewrote the crash run's journal" >&2
    exit 1
fi
"$BUILD/tools/diffcheck" --replay-journal "$WORK/w.wal" --batch 4
echo "crash_recover_smoke: OK (snapshot at crash ${snap_bytes} B," \
     "journal ${wal_bytes} B)"
