#!/usr/bin/env bash
# Fail when statement coverage of a recovery-critical package drops
# below the floor. Usage: coverage-floor.sh [floor-percent]
#
# A package entry may carry its own floor as path:floor, overriding the
# global default — packages whose batteries earn higher coverage are
# pinned there so a regression can't hide under the global floor.
set -euo pipefail

FLOOR="${1:-75}"
PKGS=(
  ./internal/wal
  ./internal/scheduler
  ./internal/scheduler/policy:61.6
  ./internal/fault
  ./internal/chaos
  ./internal/twopc
  ./internal/runtime
  ./internal/store
  ./internal/federation:83
  ./internal/serve
)

fail=0
for entry in "${PKGS[@]}"; do
  pkg="${entry%%:*}"
  floor="$FLOOR"
  if [[ "$entry" == *:* ]]; then
    floor="${entry##*:}"
  fi
  out=$(go test -count=1 -cover "$pkg" | tail -1)
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*' || true)
  if [ -z "$pct" ]; then
    echo "NO COVERAGE REPORTED: $out" >&2
    fail=1
    continue
  fi
  ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
  if [ "$ok" = "1" ]; then
    echo "ok   $pkg ${pct}% (floor ${floor}%)"
  else
    echo "FAIL $pkg ${pct}% is below the ${floor}% floor" >&2
    fail=1
  fi
done
exit $fail
