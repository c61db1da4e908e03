#!/usr/bin/env bash
# Determinism smoke for the experiment CLI, shared by every CI smoke
# scenario (.github/workflows/ci.yml "smoke" matrix).
#
# Each scenario runs its experiment three ways and requires the reports
# to be byte-identical (modulo the "cache:" status line):
#
#   cold  — parallel workers, empty cache (must report misses)
#   warm  — same invocation again (must be pure cache hits)
#   fresh — --no-cache single pass (must equal the cold report)
#
# plus scenario-specific assertions: expected sections present, and —
# for the opt-in layers (elastic, tenancy) — proof that the default
# experiment grids are not perturbed by the layer existing.
#
# Usage: scripts/ci_smoke.sh {figure|chaos|traffic|elastic|tenancy|backpressure|scheduling}

set -euo pipefail

CACHE_DIR=.ci-cache

repro() {
    PYTHONPATH=src python -m repro "$@"
}

strip_cache_line() {
    grep -v "^cache:" "$1"
}

# cold_warm_fresh <prefix> <experiment args...>: the three-way
# byte-identity harness.  Leaves <prefix>-{cold,warm,fresh}.txt behind
# for scenario-specific grep assertions.
cold_warm_fresh() {
    local prefix="$1"
    shift
    echo "== $prefix: cold run (populates cache)"
    repro "$@" --jobs 2 --cache-dir "$CACHE_DIR" | tee "$prefix-cold.txt"
    grep -q "miss(es)" "$prefix-cold.txt"
    echo "== $prefix: warm run (must be pure cache hits)"
    repro "$@" --jobs 2 --cache-dir "$CACHE_DIR" | tee "$prefix-warm.txt"
    grep -q " 0 miss(es)" "$prefix-warm.txt"
    echo "== $prefix: cold == warm, byte for byte"
    diff <(strip_cache_line "$prefix-cold.txt") \
         <(strip_cache_line "$prefix-warm.txt")
    echo "== $prefix: fresh uncached run matches the cached one"
    repro "$@" --no-cache | tee "$prefix-fresh.txt"
    diff <(strip_cache_line "$prefix-cold.txt") "$prefix-fresh.txt"
}

# fresh_default_grids: uncached default-config runs of the classic
# grids, used by the opt-in layers' non-perturbation assertions.
fresh_default_grids() {
    repro fig9 --duration 60 --no-cache | tee fig9-default.txt
    repro chaos --duration 90 --no-cache | tee chaos-default.txt
    repro traffic --duration 90 --no-cache | tee traffic-default.txt
}

# hash_seed_independent <experiment> <args...>: uncached runs under
# PYTHONHASHSEED=0 and 1 must print the same report.  Nimbus
# reconciliation and R-Storm's distance keys do float arithmetic over
# resource availability; any set- or dict-ordered step there would make
# the report depend on the hash seed.  Leaves <experiment>-hash{0,1}.txt.
hash_seed_independent() {
    local experiment="$1"
    echo "== $experiment: the grid does not depend on the hash seed"
    PYTHONHASHSEED=0 repro "$@" --no-cache | tee "$experiment-hash0.txt"
    PYTHONHASHSEED=1 repro "$@" --no-cache | tee "$experiment-hash1.txt"
    diff "$experiment-hash0.txt" "$experiment-hash1.txt"
}

# NB: no braces inside the ${1:?...} message — bash would close the
# expansion at the first "}" and glue the rest onto the value.
scenario="${1:?usage: $0 figure|chaos|traffic|elastic|tenancy|backpressure|scheduling}"

case "$scenario" in
figure)
    cold_warm_fresh fig9 fig9 --duration 60
    # Both round-robin baselines deal through DefaultScheduler; the
    # ablation table prints each one's row.
    cold_warm_fresh ablations ablations --duration 30
    grep -q "^ *default " ablations-fresh.txt
    grep -q "^ *aniello-offline " ablations-fresh.txt
    # No perfbench digest covers this table, the only printed output of
    # Aniello's scheduler and of R-Storm's ordering and weight variants,
    # so its bytes are pinned here (the same on Python 3.11 and 3.12).
    echo "== ablations: the table matches its pinned sha256"
    echo "0785d4a04e7cbc894181bce27da751f3226eda800ba483112539db5ca4869efb  ablations-fresh.txt" \
        | sha256sum -c -
    ;;
chaos)
    cold_warm_fresh chaos chaos --duration 90
    cold_warm_fresh lossy chaos --duration 90 --loss-rate 0.05 --quarantine
    grep -q "lossy-link" lossy-cold.txt
    grep -q "flapping-node" lossy-cold.txt
    echo "== chaos: extended flags do not perturb the default grid"
    repro chaos --duration 90 --no-cache | tee chaos-default-again.txt
    diff chaos-fresh.txt chaos-default-again.txt
    hash_seed_independent chaos --duration 90
    echo "== chaos: traffic layer does not perturb closed-loop runs"
    # Default (arrival_process=None) runs must never grow open-loop
    # metrics: no offered/achieved/e2e keys in a closed-loop report.
    ! grep -qE "offered|achieved_ratio|e2e_p" chaos-fresh.txt
    echo "== chaos: a long run still measures every recovery"
    # 900 simulated seconds report far more per-batch events than a
    # trace ring buffer holds; every row must still show detection,
    # rescheduling and at least one migration.
    repro chaos --duration 900 --no-cache | tee chaos-long.txt
    awk '
        $1 == "scenario" { for (i = 1; i <= NF; i++) col[$i] = i; next }
        /^-/ { rows = 1; next }
        /^note:/ || NF == 0 { rows = 0 }
        rows {
            seen++
            if ($col["detect_s"] == "-" || $col["resched_s"] == "-" \
                || $col["migrations"] == 0) {
                print "incomplete recovery row: " $0
                bad = 1
            }
        }
        END { exit (bad || seen == 0) }
    ' chaos-long.txt
    ;;
traffic)
    cold_warm_fresh traffic traffic --duration 90
    grep -q "e2e_p999_ms" traffic-cold.txt
    grep -q "zipf" traffic-cold.txt
    ;;
elastic)
    cold_warm_fresh elastic elastic --duration 90
    grep -q "elastic/r-storm" elastic-cold.txt
    grep -q "adapt_s" elastic-cold.txt
    hash_seed_independent elastic --duration 60
    echo "== elastic: default path unperturbed (opt-in layer off)"
    # With nimbus.elastic.enabled left at its default (false) no
    # elastic metric, decision or rescale may surface anywhere in the
    # default experiment grids.
    fresh_default_grids
    ! grep -qE "elastic|adapt_s|rescale" \
        fig9-default.txt chaos-default.txt traffic-default.txt
    ;;
tenancy)
    cold_warm_fresh tenants tenants --duration 60
    grep -q "jain=" tenants-cold.txt
    grep -q "evictions=" tenants-cold.txt
    grep -q "placement-agnostic" tenants-cold.txt
    hash_seed_independent tenants --duration 60
    echo "== tenancy: default path unperturbed (opt-in layer off)"
    # With nimbus.tenancy.enabled left at its default (false) no
    # tenant, fairness or admission metric may surface anywhere in the
    # default experiment grids.
    fresh_default_grids
    ! grep -qE "tenant|jain=|credits|admitted|evict" \
        fig9-default.txt chaos-default.txt traffic-default.txt
    ;;
backpressure)
    cold_warm_fresh protect protection --duration 60
    grep -q "backpressure+shed" protect-cold.txt
    grep -q "shed_rate" protect-cold.txt
    grep -q "priority/free" protect-cold.txt
    grep -q "priority/gold" protect-cold.txt
    echo "== backpressure: default path unperturbed (opt-in layer off)"
    # With simulation.flow left at its default (off) no
    # shed, stall or throttle metric may surface anywhere in the default
    # experiment grids.  ("shed" does not substring-match "scheduler".)
    fresh_default_grids
    ! grep -qE "shed|throttled|stall|backpressure" \
        fig9-default.txt chaos-default.txt traffic-default.txt
    ;;
scheduling)
    cold_warm_fresh scalability scalability
    # Neither the cached table nor tier-1 reads a clock, so R-Storm's
    # scheduling latency at the table's own scales and seeds is bounded
    # here: each scale's mean round must stay far below Nimbus's 10 s
    # period (under 1 s) and grow sub-quadratically with the node count.
    echo "== scheduling: R-Storm latency bounds over the scalability grid"
    PYTHONPATH=src python - <<'PY'
import time

from repro.experiments import scalability
from repro.scheduler.rstorm import RStormScheduler

samples = {}
for unit in scalability.units():
    if unit.scheduler.fn is not RStormScheduler:
        continue
    cluster = unit.cluster.build()
    topologies = [t.build() for t in unit.topologies]
    started = time.perf_counter()
    RStormScheduler().schedule(topologies, cluster)
    samples.setdefault(len(cluster), []).append(time.perf_counter() - started)
mean_ms = {n: 1e3 * sum(s) / len(s) for n, s in sorted(samples.items())}
for nodes, ms in mean_ms.items():
    print(f"{nodes:>4} nodes: r-storm {ms:.2f} ms per round")
    assert ms < 1000, (nodes, ms)
small, large = min(mean_ms), max(mean_ms)
ratio = mean_ms[large] / max(mean_ms[small], 0.01)
assert ratio < (large / small) ** 2, (ratio, large / small)
PY
    ;;
*)
    echo "unknown scenario: $scenario" >&2
    exit 2
    ;;
esac

echo "== $scenario smoke OK"
