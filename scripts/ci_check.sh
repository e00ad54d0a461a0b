#!/usr/bin/env bash
# Full local CI sweep: the three build presets and their test tiers. Run from
# anywhere; everything is rooted at the repository top level. Any failure
# aborts the script (set -e).
#
# Every harness gate (eval, perf, what-if, fleet, plan, serve), its
# negative control and every end-to-end smoke script is a ctest, so the
# ctest runs below cover them.
#
#   scripts/ci_check.sh            # default, sanitize and tsan builds and tests
#   SKIP_SANITIZE=1 SKIP_TSAN=1 scripts/ci_check.sh   # quick pre-push variant

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== [1/3] Release build + full test suite (all gates and smokes) =="
cmake --preset default
cmake --build --preset default -j "${jobs}"
ctest --preset default -j "${jobs}"

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
    echo "== [2/3] ASan+UBSan build + sanitize_smoke suite =="
    cmake --preset sanitize
    cmake --build --preset sanitize -j "${jobs}"
    ctest --preset sanitize-smoke -j "${jobs}"
else
    echo "== [2/3] skipped (SKIP_SANITIZE=1) =="
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
    echo "== [3/3] ThreadSanitizer build + tsan_smoke suite =="
    cmake --preset tsan
    cmake --build --preset tsan -j "${jobs}"
    ctest --preset tsan -j "${jobs}"
else
    echo "== [3/3] skipped (SKIP_TSAN=1) =="
fi

echo "ci_check: all green"
