#!/usr/bin/env bash
# Daemon smoke test: a real multi-process run of the shared-memory
# serving plane.
#
#   1. Start specinferd (journaled) over a scratch IPC directory.
#   2. Run three specinfer_client processes concurrently; one of
#      them dies kill -9 style mid-stream (--abandon-after-tokens:
#      no goodbye, no unlink, hard exit) and must be lease-reaped.
#   3. The survivors' `  tokens:` lines must be byte-identical to
#      the in-process `spec_infer --verbose` oracle.
#   4. SIGTERM drains the daemon; no shared-memory segment may be
#      left behind, the journal must replay token-identically
#      (diffcheck --replay-journal under the daemon's engine and
#      serving flags), and obs_check pins the ipc_*/daemon_* metric
#      catalog, including the reap counter.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
LLM=tiny
MAX_TOKENS=24
WORK=$(mktemp -d "${TMPDIR:-/tmp}/specinferd-smoke-XXXXXX")
IPCDIR="$WORK/ipc"
mkdir -p "$IPCDIR"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

"$BUILD/tools/specinferd" \
    --llm $LLM --max-tokens $MAX_TOKENS --batch 4 \
    --dir "$IPCDIR" --lease-ticks 400 --scan-every 1 \
    --tick-micros 200 \
    --journal "$WORK/serve.wal" \
    --metrics-out "$WORK/daemon.prom" --verbose \
    >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [ -e "$IPCDIR/specinferd.board" ] && break
    sleep 0.1
done
[ -e "$IPCDIR/specinferd.board" ] || {
    echo "daemon_smoke: board never appeared"; cat "$WORK/daemon.log"
    exit 1
}

client() { # client <prompt-start> <logfile> [extra flags...]
    local start=$1 log=$2; shift 2
    "$BUILD/tools/specinfer_client" \
        --llm $LLM --dir "$IPCDIR" --num-prompts 3 \
        --prompt-start "$start" --max-tokens $MAX_TOKENS "$@" \
        >"$log" 2>&1
}

client 0 "$WORK/client_a.log" &
A_PID=$!
client 3 "$WORK/client_b.log" &
B_PID=$!
# The victim: dies without cleanup once tokens are mid-stream.
client 6 "$WORK/client_victim.log" --abandon-after-tokens 2 &
V_PID=$!

rc=0; wait $V_PID || rc=$?
[ "$rc" -eq 7 ] || {
    echo "daemon_smoke: victim exit $rc, wanted 7 (abandoned)"
    cat "$WORK/client_victim.log"; exit 1
}
wait $A_PID || { echo "daemon_smoke: client A failed";
                 cat "$WORK/client_a.log"; exit 1; }
wait $B_PID || { echo "daemon_smoke: client B failed";
                 cat "$WORK/client_b.log"; exit 1; }

# Survivors must match the in-process oracle line-for-line: the
# victim's crash and reap were invisible to them.
"$BUILD/tools/spec_infer" --llm $LLM --num-prompts 6 \
    --max-tokens $MAX_TOKENS --verbose >"$WORK/oracle.log"
grep '^  tokens:' "$WORK/oracle.log" >"$WORK/oracle.tokens"
grep -h '^  tokens:' "$WORK/client_a.log" "$WORK/client_b.log" \
    >"$WORK/survivor.tokens"
diff -u "$WORK/oracle.tokens" "$WORK/survivor.tokens" || {
    echo "daemon_smoke: survivor tokens diverged from oracle"
    exit 1
}

# The victim's lease must expire: its segment is reaped, the board
# survives until drain.
for _ in $(seq 1 100); do
    n=$(ls "$IPCDIR" | grep -c '^specinferd\.client\.' || true)
    [ "$n" -eq 0 ] && break
    sleep 0.1
done
[ "$n" -eq 0 ] || {
    echo "daemon_smoke: $n client segment(s) never reaped"
    ls -l "$IPCDIR"; exit 1
}

# Graceful drain on SIGTERM: exit 0 and an empty IPC directory.
kill -TERM $DAEMON_PID
rc=0; wait $DAEMON_PID || rc=$?
DAEMON_PID=""
[ "$rc" -eq 0 ] || {
    echo "daemon_smoke: daemon exit $rc, wanted 0 (drained)"
    cat "$WORK/daemon.log"; exit 1
}
leftover=$(ls "$IPCDIR" | grep -c '^specinferd' || true)
[ "$leftover" -eq 0 ] || {
    echo "daemon_smoke: leaked shared-memory segments:"
    ls -l "$IPCDIR"; exit 1
}

# The journal replays token-identically offline.
"$BUILD/tools/diffcheck" --replay-journal "$WORK/serve.wal" \
    --llm $LLM --max-tokens $MAX_TOKENS --batch 4

# Pinned serving-plane metric catalog, and the reap actually
# happened (daemon_reaps >= 1 in the exposition).
"$BUILD/tools/obs_check" --metrics "$WORK/daemon.prom" \
    --require-metric ipc_frames_sent,ipc_frames_received,ipc_bytes_sent,ipc_bytes_received,ipc_ring_full_retries,ipc_crc_rejects,daemon_reaps,daemon_requests_admitted,daemon_requests_rejected,daemon_cancels,daemon_tokens_streamed,daemon_ticks,daemon_clients_connected,watchdog_stalls,watchdog_wedges
awk '$1 == "daemon_reaps" { reaps = $2 }
     END { exit (reaps >= 1 ? 0 : 1) }' "$WORK/daemon.prom" || {
    echo "daemon_smoke: daemon_reaps never incremented"
    grep '^daemon_' "$WORK/daemon.prom"; exit 1
}

# --- Sharded daemon phase: specinferd --tp 2 -------------------
# One client against a tensor-parallel daemon; its tokens must be
# byte-identical to the tp=1 oracle above (DESIGN.md §5j lifted to
# the multi-process plane), and the daemon's metrics must carry the
# collective-accounting catalog.
IPCDIR2="$WORK/ipc-tp2"
mkdir -p "$IPCDIR2"
"$BUILD/tools/specinferd" \
    --llm $LLM --max-tokens $MAX_TOKENS --batch 4 --tp 2 \
    --dir "$IPCDIR2" --lease-ticks 400 --scan-every 1 \
    --tick-micros 200 \
    --metrics-out "$WORK/daemon_tp2.prom" --verbose \
    >"$WORK/daemon_tp2.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
    [ -e "$IPCDIR2/specinferd.board" ] && break
    sleep 0.1
done
[ -e "$IPCDIR2/specinferd.board" ] || {
    echo "daemon_smoke: tp2 board never appeared"
    cat "$WORK/daemon_tp2.log"; exit 1
}

"$BUILD/tools/specinfer_client" \
    --llm $LLM --dir "$IPCDIR2" --num-prompts 3 \
    --prompt-start 0 --max-tokens $MAX_TOKENS \
    >"$WORK/client_tp2.log" 2>&1 || {
    echo "daemon_smoke: tp2 client failed"
    cat "$WORK/client_tp2.log"; exit 1
}

head -n 3 "$WORK/oracle.tokens" >"$WORK/oracle_tp2.tokens"
grep '^  tokens:' "$WORK/client_tp2.log" >"$WORK/tp2.tokens"
diff -u "$WORK/oracle_tp2.tokens" "$WORK/tp2.tokens" || {
    echo "daemon_smoke: --tp 2 tokens diverged from tp=1 oracle"
    exit 1
}

kill -TERM $DAEMON_PID
rc=0; wait $DAEMON_PID || rc=$?
DAEMON_PID=""
[ "$rc" -eq 0 ] || {
    echo "daemon_smoke: tp2 daemon exit $rc, wanted 0 (drained)"
    cat "$WORK/daemon_tp2.log"; exit 1
}

"$BUILD/tools/obs_check" --metrics "$WORK/daemon_tp2.prom" \
    --require-metric parallel_allreduce_calls,parallel_allreduce_bytes,parallel_allgather_calls,parallel_allgather_bytes,daemon_tokens_streamed

echo "daemon_smoke: OK (3 clients, 1 reaped, survivors oracle-"
echo "identical, journal replayed, catalog pinned, --tp 2"
echo "daemon oracle-identical with collective accounting)"
