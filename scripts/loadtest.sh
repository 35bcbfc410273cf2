#!/usr/bin/env bash
# Serving load test, as run by CI's loadtest job (and `make loadtest`):
# build tmserve and tmload, boot a 2-tenant fleet replaying on a pace
# slow enough to outlive the test, then drive it with tmload's full
# client mix — a burst arrival of conditional pollers, delta pollers and
# SSE subscribers — for ~10 seconds across both tenants. tmload itself
# exits nonzero on any client-observed error or a p99 snapshot latency
# past the bound, so the script's exit code IS the gate.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pid=""
cleanup() {
  if [ -n "$pid" ]; then
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$workdir" 2>/dev/null || true
}
trap cleanup EXIT

addr="127.0.0.1:${LOADTEST_PORT:-17482}"
base="http://$addr"

say() { echo "loadtest: $*"; }

say "building tmserve and tmload"
go build -o "$workdir/tmserve" ./cmd/tmserve
go build -o "$workdir/tmload" ./cmd/tmload

# cycles -1 keeps both tenants replaying (and publishing fresh versions
# for the long-poll/SSE clients) for the whole run; the 150ms pace puts
# a new version on the wire several times a second without turning the
# replay into a CPU soak.
cat > "$workdir/fleet.json" <<'JSON'
{
  "format": 1,
  "tenants": [
    {"name": "eu", "source": "europe", "cycles": -1, "pace": "150ms", "window": 3, "resolve_every": 4, "resolve_max_iter": 4000, "resolve_tol": 1e-5},
    {"name": "us", "source": "america", "cycles": -1, "pace": "150ms", "window": 3, "resolve_every": 4, "resolve_max_iter": 4000, "resolve_tol": 1e-5}
  ]
}
JSON

say "booting 2-tenant fleet"
"$workdir/tmserve" -fleet "$workdir/fleet.json" -addr "$addr" &
pid=$!
for _ in $(seq 1 120); do
  if curl -sf "$base/healthz" > /dev/null 2>&1; then break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    say "daemon died during startup"; exit 1
  fi
  sleep 0.25
done

say "waiting for both tenants' first snapshot"
for _ in $(seq 1 120); do
  serving=$(curl -sf "$base/v1/tenants" | jq '[.tenants[] | select(.have_snapshot)] | length')
  [ "$serving" = "2" ] && break
  sleep 0.25
done
serving=$(curl -sf "$base/v1/tenants" | jq '[.tenants[] | select(.have_snapshot)] | length')
if [ "$serving" != "2" ]; then
  say "only $serving/2 tenants have a snapshot"; curl -s "$base/v1/tenants" | jq .; exit 1
fi

say "driving the client mix for 10s"
"$workdir/tmload" -url "$base" -tenants eu,us -clients "${LOADTEST_CLIENTS:-200}" \
  -duration 10s -pattern burst -poll-interval 100ms \
  -sse-frac 0.3 -delta-frac 0.5 -max-p99 "${LOADTEST_MAX_P99:-1s}"

say "PASS"
