#!/usr/bin/env bash
# End-to-end smoke of the network front door: a real concealer_server
# process on a temp dir, a multi-tenant client workload over the wire,
# SIGTERM graceful drain (exit 0 within 5 s, "drained cleanly", nothing
# orphaned), then kill -9 mid-workload + restart + retry to byte-identical
# answers.
#
# Usage: .github/e2e_net.sh BUILD_DIR
# Needs concealer_server and network_quickstart built in BUILD_DIR.
set -euo pipefail

BUILD="${1:?usage: e2e_net.sh BUILD_DIR}"
ROOT="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null; rm -rf "$ROOT"' EXIT

start_server() {
  rm -f "$ROOT/port"
  "$BUILD/concealer_server" --root="$ROOT/data" --allow-admin --demo-keys \
      --port-file="$ROOT/port" >"$ROOT/$1.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$ROOT/port" ] && break
    sleep 0.1
  done
  if [ ! -s "$ROOT/port" ]; then
    echo "FAIL: server never wrote its port file"; cat "$ROOT/$1.log"; exit 1
  fi
  PORT="$(cat "$ROOT/port")"
  # Supervisors are told to wait for this line, so its presence is part of
  # the contract.
  grep -q "listening on" "$ROOT/$1.log"
}

quickstart() { "$BUILD/network_quickstart" "$@" >/dev/null; }

# SIGTERM, then the drain contract: exit 0 within 5 s with "drained
# cleanly" in the log. Polls kill -0, because a bare `wait` never times out.
stop_server() {
  kill -TERM "$SERVER_PID"
  for _ in $(seq 1 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server still running 5 s after SIGTERM"; cat "$ROOT/$1.log"
    exit 1
  fi
  rc=0; wait "$SERVER_PID" || rc=$?
  SERVER_PID=""
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: SIGTERM exit code $rc, want 0"; cat "$ROOT/$1.log"; exit 1
  fi
  if ! grep -q "drained cleanly" "$ROOT/$1.log"; then
    echo "FAIL: no 'drained cleanly' in server log"; cat "$ROOT/$1.log"; exit 1
  fi
}

echo "=== phase 1: provision two tenants, run the workload over the wire ==="
start_server server1
quickstart --connect="127.0.0.1:$PORT" --tenant=acme --provision \
    --answers="$ROOT/acme.ref"
quickstart --connect="127.0.0.1:$PORT" --tenant=globex --provision \
    --answers="$ROOT/globex.ref"

echo "=== phase 2: SIGTERM graceful drain ==="
stop_server server1

echo "=== phase 3: restart after drain answers byte-identically ==="
start_server server2
quickstart --connect="127.0.0.1:$PORT" --tenant=acme \
    --answers="$ROOT/acme.postdrain"
diff "$ROOT/acme.ref" "$ROOT/acme.postdrain"

echo "=== phase 4: kill -9 with a workload in flight ==="
( "$BUILD/network_quickstart" --connect="127.0.0.1:$PORT" --tenant=globex \
    >/dev/null 2>&1 || true ) &
WORKLOAD_PID=$!
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
wait "$WORKLOAD_PID" || true

echo "=== phase 5: restart after kill -9, retry to byte-identity ==="
start_server server3
quickstart --connect="127.0.0.1:$PORT" --tenant=acme \
    --answers="$ROOT/acme.postcrash"
quickstart --connect="127.0.0.1:$PORT" --tenant=globex \
    --answers="$ROOT/globex.postcrash"
diff "$ROOT/acme.ref" "$ROOT/acme.postcrash"
diff "$ROOT/globex.ref" "$ROOT/globex.postcrash"

echo "=== phase 6: final SIGTERM drain ==="
stop_server server3

echo "e2e net smoke: PASS"
