#!/usr/bin/env bash
# Supervisor smoke test: specinferd kept alive by
# specinferd_supervisor across repeated mid-stream crashes.
#
#   1. The supervisor forks specinferd with --crash-after 2: every
#      incarnation hard-exits (no drain, no unlink) after two live
#      iterations while work remains, exactly like a kill -9.
#   2. Two client processes stream six prompts across the crashes.
#      Each restart recovers the journal and bumps the board epoch;
#      clients re-Hello and resume their streams where they left off.
#   3. The streams must be byte-identical to the in-process
#      `spec_infer --verbose` oracle despite the crash/recover
#      cycles — recovery is invisible in the tokens.
#   4. SIGTERM drains gracefully: supervisor exit 0, no leaked
#      shared-memory segments, and the exported supervisor_* metric
#      catalog shows >= 2 restarts and zero give-ups.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
LLM=tiny
MAX_TOKENS=24
WORK=$(mktemp -d "${TMPDIR:-/tmp}/specinferd-sup-smoke-XXXXXX")
IPCDIR="$WORK/ipc"
mkdir -p "$IPCDIR"
SUP_PID=""
cleanup() {
    [ -n "$SUP_PID" ] && kill -9 "$SUP_PID" 2>/dev/null || true
    pkill -9 -f "specinferd .*$IPCDIR" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

"$BUILD/tools/specinferd_supervisor" \
    --daemon "$BUILD/tools/specinferd" --dir "$IPCDIR" \
    --backoff-base-ms 40 --backoff-cap-ms 150 \
    --stable-uptime-ms 2000 \
    --crash-loop-crashes 40 --crash-loop-window-ms 120000 \
    --seed 7 --poll-ms 5 \
    --metrics-out "$WORK/supervisor.prom" -- \
    --llm $LLM --max-tokens $MAX_TOKENS --batch 4 \
    --dir "$IPCDIR" --lease-ticks 400 --scan-every 1 \
    --crash-after 2 \
    --journal "$WORK/serve.wal" --verbose \
    >"$WORK/supervisor.log" 2>&1 &
SUP_PID=$!

for _ in $(seq 1 100); do
    [ -e "$IPCDIR/specinferd.board" ] && break
    sleep 0.1
done
[ -e "$IPCDIR/specinferd.board" ] || {
    echo "supervisor_smoke: board never appeared"
    cat "$WORK/supervisor.log"; exit 1
}

# Clients ride out restart gaps (crash detection + backoff) on a
# wide heartbeat-stall allowance: 20000 polls x 500us = 10 s.
client() { # client <prompt-start> <logfile> [extra flags...]
    local start=$1 log=$2; shift 2
    "$BUILD/tools/specinfer_client" \
        --llm $LLM --dir "$IPCDIR" --num-prompts 3 \
        --prompt-start "$start" --max-tokens $MAX_TOKENS \
        --stall-polls 20000 --verbose "$@" \
        >"$log" 2>&1
}

client 0 "$WORK/client_a.log" &
A_PID=$!
client 3 "$WORK/client_b.log" --priority interactive &
B_PID=$!
wait $A_PID || { echo "supervisor_smoke: client A failed";
                 cat "$WORK/client_a.log"
                 cat "$WORK/supervisor.log"; exit 1; }
wait $B_PID || { echo "supervisor_smoke: client B failed";
                 cat "$WORK/client_b.log"
                 cat "$WORK/supervisor.log"; exit 1; }

# Crash/recover cycles must actually have happened — the whole point
# of the smoke — and none may have tripped the crash-loop detector.
awk '$1 == "supervisor_restarts" { restarts = $2 }
     END { exit (restarts >= 2 ? 0 : 1) }' "$WORK/supervisor.prom" || {
    echo "supervisor_smoke: wanted >= 2 restarts, got:"
    grep '^supervisor_' "$WORK/supervisor.prom"
    cat "$WORK/supervisor.log"; exit 1
}
awk '$1 == "supervisor_giveups" { giveups = $2 }
     END { exit (giveups == 0 ? 0 : 1) }' "$WORK/supervisor.prom" || {
    echo "supervisor_smoke: supervisor gave up"
    cat "$WORK/supervisor.log"; exit 1
}

# Recovery must be invisible in the tokens: every stream matches the
# in-process oracle line-for-line.
"$BUILD/tools/spec_infer" --llm $LLM --num-prompts 6 \
    --max-tokens $MAX_TOKENS --verbose >"$WORK/oracle.log"
grep '^  tokens:' "$WORK/oracle.log" >"$WORK/oracle.tokens"
grep -h '^  tokens:' "$WORK/client_a.log" "$WORK/client_b.log" \
    >"$WORK/survivor.tokens"
diff -u "$WORK/oracle.tokens" "$WORK/survivor.tokens" || {
    echo "supervisor_smoke: tokens diverged from oracle across"
    echo "crash/recover cycles"
    cat "$WORK/supervisor.log"; exit 1
}

# Graceful drain: SIGTERM forwards to the (now idle) daemon, the
# supervisor exits with its status, and nothing is left behind.
kill -TERM $SUP_PID
rc=0; wait $SUP_PID || rc=$?
SUP_PID=""
[ "$rc" -eq 0 ] || {
    echo "supervisor_smoke: supervisor exit $rc, wanted 0"
    cat "$WORK/supervisor.log"; exit 1
}
leftover=$(ls "$IPCDIR" | grep -c '^specinferd' || true)
[ "$leftover" -eq 0 ] || {
    echo "supervisor_smoke: leaked shared-memory segments:"
    ls -l "$IPCDIR"; exit 1
}

# Pinned supervisor metric catalog.
"$BUILD/tools/obs_check" --metrics "$WORK/supervisor.prom" \
    --require-metric supervisor_restarts,supervisor_crashes,supervisor_wedge_kills,supervisor_giveups

restarts=$(awk '$1 == "supervisor_restarts" { print $2 }' \
    "$WORK/supervisor.prom")
echo "supervisor_smoke: OK ($restarts crash/recover cycles,"
echo "streams oracle-identical, drained clean, catalog pinned)"
