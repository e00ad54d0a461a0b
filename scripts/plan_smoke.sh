#!/usr/bin/env bash
# End-to-end smoke test of the adaptive profiling planner (ISSUE 10):
#
#   1. run extradeep plan --smoke with the metrics trace sink and a JSON
#      output, checking the planner saves runs against the fixed grid
#   2. grep the metrics exposition for the extradeep_plan_* instruments
#      (arms-pulled/budget counters, refit-latency histogram)
#   3. validate BENCH_plan.json with `extradeep eval --validate-json` and
#      check the schema marker
#   4. exercise the serve `plan` verb against a fitted model: the
#      acquisition answer must name the candidate with the widest relative
#      prediction interval
#
# Usage: plan_smoke.sh /path/to/extradeep
# Registered as the `plan_smoke` ctest and run by scripts/ci_check.sh.

set -euo pipefail

bin="${1:?usage: plan_smoke.sh /path/to/extradeep}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/plan-smoke.XXXXXX")"
cleanup() { rm -rf "${workdir}"; }
trap cleanup EXIT

echo "== adaptive plan: smoke subset with metrics sink =="
"${bin}" plan --smoke --out "${workdir}/BENCH_plan.json" \
    --trace "metrics:${workdir}/metrics.prom" | tee "${workdir}/plan.out"
grep -q 'mean profiling-cost reduction' "${workdir}/plan.out" || {
    echo "FAIL: plan summary line missing"; exit 1
}

echo "== planner instruments reach the metrics exposition =="
[[ -s "${workdir}/metrics.prom" ]] || {
    echo "FAIL: metrics sink missing or empty"; exit 1
}
grep -q '^extradeep_plan_arms_pulled [1-9]' "${workdir}/metrics.prom" || {
    echo "FAIL: no arms pulled counted:"; cat "${workdir}/metrics.prom"; exit 1
}
grep -q '^extradeep_plan_budget_spent [1-9]' "${workdir}/metrics.prom" || {
    echo "FAIL: no budget counted:"; cat "${workdir}/metrics.prom"; exit 1
}
grep -q '^extradeep_plan_refit_latency_us_count [1-9]' "${workdir}/metrics.prom" || {
    echo "FAIL: no refits timed:"; cat "${workdir}/metrics.prom"; exit 1
}

echo "== BENCH_plan.json validates and carries the schema =="
"${bin}" eval --validate-json "${workdir}/BENCH_plan.json"
grep -q '"schema": "extradeep-plan/1"' "${workdir}/BENCH_plan.json" || {
    echo "FAIL: schema marker missing from BENCH_plan.json"; exit 1
}
grep -q '"paper_sampling_reduction_pct"' "${workdir}/BENCH_plan.json" || {
    echo "FAIL: paper reference missing from BENCH_plan.json"; exit 1
}

echo "== serve plan verb: acquisition over a fitted model =="
mkdir -p "${workdir}/models"
"${bin}" fit --out "${workdir}/models/m.edpm" --name m \
    --reps 2 --seed 3 > /dev/null
plan_answer="$("${bin}" ask --models "${workdir}/models" \
    "plan m 12 16 24 32")"
echo "${plan_answer}"
[[ "${plan_answer}" == ok\ next=* ]] || {
    echo "FAIL: plan verb did not answer ok next=..."; exit 1
}
# Uncertainty grows away from the profiled 2..10 range: the extrapolation
# candidate 32 must be the acquisition target.
[[ "${plan_answer}" == *"next=32"* ]] || {
    echo "FAIL: plan verb did not pick the least certain candidate"; exit 1
}
"${bin}" ask --models "${workdir}/models" "plan m" \
    > "${workdir}/plan_usage.out" || true
grep -q '^err usage: plan' "${workdir}/plan_usage.out" || {
    echo "FAIL: plan verb usage error missing"; exit 1
}

echo "plan_smoke: all green"
