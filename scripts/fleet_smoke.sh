#!/usr/bin/env bash
# Fleet serving smoke test, as run by CI's fleet-smoke job (and `make
# smoke`): build tmserve, boot a 4-tenant fleet in replay mode, read
# /v1/tenants and every /v1/t/{name}/snapshot, stop the daemon, restart
# it against the same -checkpoint-dir with an hour-long pace, and assert
# every restored tenant serves its pre-restart snapshot immediately.
set -euo pipefail

cd "$(dirname "$0")/.."
smoke_name="fleet-smoke"
. scripts/lib.sh

addr="127.0.0.1:${FLEET_SMOKE_PORT:-17481}"
base="http://$addr"

build_tmserve

cat > "$workdir/fleet.json" <<'JSON'
{
  "format": 1,
  "tenants": [
    {"name": "eu", "source": "europe", "cycles": 6, "pace": "20ms", "window": 3, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5},
    {"name": "us", "source": "america", "cycles": 6, "pace": "20ms", "window": 3, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5},
    {"name": "lab-noisy", "source": "scenario:noisy:europe:0.05", "cycles": 6, "pace": "20ms", "window": 3, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5},
    {"name": "lab-16", "source": "scenario:scaled:16", "cycles": 6, "pace": "20ms", "window": 3, "resolve_every": 3, "resolve_max_iter": 4000, "resolve_tol": 1e-5}
  ]
}
JSON
names=(eu us lab-noisy lab-16)

say "booting 4-tenant fleet"
start_tmserve "$base" -fleet "$workdir/fleet.json" -checkpoint-dir "$workdir/ckpt" -addr "$addr"
daemon_pid="$last_pid"

all_serving() {
  [ "$(curl -sf "$base/v1/tenants" | jq '[.tenants[] | select(.state == "serving" and .have_snapshot)] | length')" = "4" ]
}
say "waiting for every tenant to finish its replay"
if ! wait_for 240 "4/4 tenants serving" all_serving; then
  curl -s "$base/v1/tenants" | jq .
  exit 1
fi

declare -A versions intervals
for name in "${names[@]}"; do
  snap=$(curl -sf "$base/v1/t/$name/snapshot")
  versions[$name]=$(echo "$snap" | jq -r .version)
  intervals[$name]=$(echo "$snap" | jq -r .interval)
  if [ "${intervals[$name]}" != "5" ]; then
    say "tenant $name at interval ${intervals[$name]}, want 5"; exit 1
  fi
  say "tenant $name: version ${versions[$name]}, interval ${intervals[$name]}"
done

say "stopping the daemon"
stop_pid "$daemon_pid"

for name in "${names[@]}"; do
  if [ ! -f "$workdir/ckpt/$name.ckpt" ]; then
    say "tenant $name left no checkpoint"; exit 1
  fi
done

# The restarted daemon replays at an hour per interval: anything it
# serves within this test's lifetime can only come from the restored
# checkpoints.
jq '.tenants[].pace = "1h"' "$workdir/fleet.json" > "$workdir/fleet-slow.json"
mv "$workdir/fleet-slow.json" "$workdir/fleet.json"

say "restarting against the same -checkpoint-dir"
start_tmserve "$base" -fleet "$workdir/fleet.json" -checkpoint-dir "$workdir/ckpt" -addr "$addr"

for name in "${names[@]}"; do
  # First request, no settling loop: restored snapshots must serve
  # immediately.
  snap=$(curl -sf "$base/v1/t/$name/snapshot") || { say "tenant $name dark after restart"; exit 1; }
  version=$(echo "$snap" | jq -r .version)
  interval=$(echo "$snap" | jq -r .interval)
  restored=$(curl -sf "$base/v1/tenants" | jq -r ".tenants[] | select(.name == \"$name\") | .restored")
  if [ "$interval" != "${intervals[$name]}" ] || [ "$version" -lt "${versions[$name]}" ]; then
    say "tenant $name restored to version $version interval $interval, want >= ${versions[$name]} / ${intervals[$name]}"
    exit 1
  fi
  if [ "$restored" != "true" ]; then
    say "tenant $name does not report restored=true"; exit 1
  fi
  say "tenant $name: restored version $version, interval $interval"
done

say "PASS"
