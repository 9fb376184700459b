#!/usr/bin/env bash
# Tier-1 gate: lint, then build + ctest, plain and sanitized (ASan+UBSan).
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only]

set -euo pipefail

cd "$(dirname "$0")/.."

mode="all"
case "${1:-}" in
  --plain-only) mode="plain" ;;
  --sanitize-only) mode="sanitize" ;;
  "") ;;
  *) echo "usage: $0 [--plain-only|--sanitize-only]" >&2; exit 2 ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

# Lint: GCC 12 miscompiles co_await inside a loop condition — micro_sim
# crashed on `while ((co_await ch.Recv()).has_value())`. Await into a named
# local in the loop body instead. Comment lines are skipped.
loop_awaits="$(grep -rnE '^[^/]*\b(while|for)[[:space:]]*\(.*co_await' \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  src bench tests examples perfbench || true)"
if [[ -n "$loop_awaits" ]]; then
  echo "lint: co_await in a loop condition; await into a named local:" >&2
  echo "$loop_awaits" >&2
  exit 1
fi

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j"$jobs"
  ctest --test-dir "$build_dir" --output-on-failure
}

if [[ "$mode" == "all" || "$mode" == "plain" ]]; then
  echo "== plain build + ctest =="
  run_suite build
fi

if [[ "$mode" == "all" || "$mode" == "sanitize" ]]; then
  echo "== ASan+UBSan build + ctest =="
  run_suite build-asan -DQUICKSAND_SANITIZE=ON
fi

echo "== all checks passed =="
