#!/usr/bin/env bash
# bench_delta.sh — perf regression gate over the committed BENCH_*.json
# trajectory.
#
#   scripts/bench_delta.sh              # fresh bench run vs latest committed snapshot
#   scripts/bench_delta.sh new.json     # compare an existing snapshot instead of running
#   BASELINE=BENCH_2.json scripts/bench_delta.sh
#
# Exits non-zero when any benchmark present in both snapshots regresses by
# more than 25% ns/op or by more than 2 allocs/op. ns/op is only gated when
# both snapshots were recorded on the same CPU model — cross-machine
# wall-clock deltas are noise, which is why snapshots carry `cpu`, `goarch`
# and `git_rev`. allocs/op is near-deterministic and always gated; the two
# allocs of slack absorb b.N-amortized rounding (SystemSimSecond's series
# growth rounds to 10–12 depending on iteration count) without letting a
# real regression through — the exact zero-alloc and reset guarantees are
# enforced separately by the AllocsPerRun pins in alloc_test.go. Benchmarks present
# in only one snapshot are reported but never fail the gate, and snapshots
# predating the `git_rev`/`goarch` fields are read fine — the gate only
# needs `cpu` and the per-benchmark rows.
set -euo pipefail
cd "$(dirname "$0")/.."

# Snapshots recorded from a dirty tree (git_rev "…-dirty") measured
# uncommitted code, so they are only used when no clean snapshot exists
# at all.
latest_committed() {
    local f latest="" latest_clean=""
    while read -r f; do
        latest="$f"
        grep -q '"git_rev": ".*-dirty"' "$f" || latest_clean="$f"
    done < <(git ls-files 'BENCH_*.json' | sort -t_ -k2 -n)
    echo "${latest_clean:-$latest}"
}

BASELINE="${BASELINE:-$(latest_committed)}"
if [ -z "$BASELINE" ] || [ ! -f "$BASELINE" ]; then
    echo "bench_delta: no committed BENCH_*.json baseline found" >&2
    exit 1
fi

if [ $# -ge 1 ]; then
    CUR="$1"
else
    CUR="$(mktemp)"
    trap 'rm -f "$CUR"' EXIT
    scripts/bench.sh "$CUR"
fi

echo "bench_delta: comparing $CUR against baseline $BASELINE"
awk -v maxratio="${MAX_NS_RATIO:-1.25}" '
/"cpu":/ {
    cpu = $0; sub(/.*"cpu": "/, "", cpu); sub(/".*/, "", cpu)
    if (FILENAME == ARGV[1]) bcpu = cpu; else ccpu = cpu
}
/"Benchmark/ {
    name = $0; sub(/^ *"/, "", name); sub(/".*/, "", name)
    ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
    al = $0; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
    if (FILENAME == ARGV[1]) { bns[name] = ns; bal[name] = al }
    else {
        cns[name] = ns; cal[name] = al
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
}
END {
    samecpu = (bcpu == ccpu)
    if (!samecpu)
        printf "bench_delta: baseline cpu (%s) != current cpu (%s); gating allocs/op only\n", bcpu, ccpu
    fail = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!(name in bns)) {
            printf "  NEW         %-42s ns/op=%s allocs/op=%s\n", name, cns[name], cal[name]
            continue
        }
        ratio = (cns[name] + 0) / (bns[name] + 0)
        status = "ok"
        if (cal[name] + 0 > bal[name] + 2) { status = "FAIL allocs"; fail = 1 }
        else if (samecpu && ratio > maxratio + 0) { status = "FAIL ns/op"; fail = 1 }
        printf "  %-11s %-42s ns/op %s -> %s (%.2fx)  allocs/op %s -> %s\n", \
            status, name, bns[name], cns[name], ratio, bal[name], cal[name]
    }
    for (name in bns) if (!(name in cns))
        printf "  GONE        %s (baseline only; not gated)\n", name
    if (fail) { print "bench_delta: REGRESSION against " ARGV[1]; exit 1 }
    print "bench_delta: no regression against " ARGV[1]
}' "$BASELINE" "$CUR"
