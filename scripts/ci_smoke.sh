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
# Usage: scripts/ci_smoke.sh {figure|chaos|traffic|elastic|tenancy|backpressure}

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

# NB: no braces inside the ${1:?...} message — bash would close the
# expansion at the first "}" and glue the rest onto the value.
scenario="${1:?usage: $0 figure|chaos|traffic|elastic|tenancy|backpressure}"

case "$scenario" in
figure)
    cold_warm_fresh fig9 fig9 --duration 60
    ;;
chaos)
    cold_warm_fresh chaos chaos --duration 90
    cold_warm_fresh lossy chaos --duration 90 --loss-rate 0.05 --quarantine
    grep -q "lossy-link" lossy-cold.txt
    grep -q "flapping-node" lossy-cold.txt
    echo "== chaos: extended flags do not perturb the default grid"
    repro chaos --duration 90 --no-cache | tee chaos-default-again.txt
    diff chaos-fresh.txt chaos-default-again.txt
    echo "== chaos: traffic layer does not perturb closed-loop runs"
    # Default (arrival_process=None) runs must never grow open-loop
    # metrics: no offered/achieved/e2e keys in a closed-loop report.
    ! grep -qE "offered|achieved_ratio|e2e_p" chaos-fresh.txt
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
*)
    echo "unknown scenario: $scenario" >&2
    exit 2
    ;;
esac

echo "== $scenario smoke OK"
