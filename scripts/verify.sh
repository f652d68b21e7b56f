#!/bin/sh
# Tier-2 verification gate: everything tier-1 runs (build + tests) plus
# static analysis, the race detector, and the differential-fuzzer gates.
#
# The race pass uses -short because internal/bench honors testing.Short();
# the full -race run takes several minutes (internal/bench alone can exceed
# go test's default 10m under the race detector) and is available via
# RACE_FULL=1 (the nightly workflow sets it).
#
# Every gate's output is teed into OBS_ARTIFACT_DIR (default
# /tmp/govfm-obs) so CI uploads the full per-gate logs — divergence dumps
# included — on failure, not just whatever happened to hit stdout.
set -eu
cd "$(dirname "$0")/.."

# -mod=mod keeps every go build/run/test below resolving the module the
# same way regardless of the caller's GOFLAGS, and the warm-up build
# populates the build cache once so the repeated `go run ./cmd/...`
# invocations below reuse it instead of each paying a cold compile.
GOFLAGS=-mod=mod
export GOFLAGS

obs_dir="${OBS_ARTIFACT_DIR:-/tmp/govfm-obs}"
mkdir -p "$obs_dir"

# run_gate <name> <cmd...>: run a gate, teeing its output to
# $obs_dir/<name>.log.
run_gate() {
    gate_name="$1"
    shift
    if ! "$@" >"$obs_dir/$gate_name.log" 2>&1; then
        cat "$obs_dir/$gate_name.log"
        echo "gate $gate_name FAILED (log: $obs_dir/$gate_name.log)"
        exit 1
    fi
    cat "$obs_dir/$gate_name.log"
}

echo "== go build ./... (warm-up; later gates reuse the build cache)"
run_gate build go build ./...

echo "== go test ./..."
run_gate test go test ./...

echo "== go vet ./..."
run_gate vet go vet ./...

echo "== staticcheck"
# Pinned in CI (see .github/workflows/ci.yml); locally we use whatever is
# on PATH and skip with a note when absent rather than demanding an
# install.
if command -v staticcheck >/dev/null 2>&1; then
    # shellcheck disable=SC2046 # word-splitting the package list is the point
    run_gate staticcheck staticcheck $(go list ./... | grep -v /testdata/)
else
    echo "   staticcheck not on PATH; skipping (CI runs it pinned)" \
        | tee "$obs_dir/staticcheck.log"
fi

echo "== go test -race ./..."
if [ "${RACE_FULL:-0}" = "1" ]; then
    run_gate race go test -race -timeout 30m ./...
else
    run_gate race go test -race -short ./...
fi

echo "== fuzzdiff smoke (lockstep; every case also on an interpreter twin)"
# Three-way lockstep (native hart, monitor-virtualized hart, reference
# model) over ~740 cases per profile. Every case runs a second time on a
# twin engine with the host caches off, and the two must end in the same
# state: both machines (registers, CSRs, memory, cycle counters) and the
# monitor's virtual CSR file.
run_gate fuzzdiff_smoke go run ./cmd/fuzzdiff -smoke

echo "== hext lockstep (hypervisor-extension bias, state + cycles, 500 cases)"
# The same lockstep and twin, with the generator biased into V=1 guest
# states: hfence encodings, H CSR traffic, guest-page faults, and virtual
# instructions all land in the differential window.
run_gate hext_lockstep go run ./cmd/fuzzdiff -hext 500

echo "== machine equivalence (fast path, superblocks, forks vs. the interpreter)"
# Every case runs on an interpreter-only machine (the oracle), a
# caches-only machine, a full-stack machine, and a parent that forks it
# mid-run and a child spawned from the fork, under a live wall clock; all
# must match the interpreter bit for bit (registers, CSRs, memory, mtime,
# cycle counters). Cases sweep both profiles, 1, 2 and 4 harts (multi-hart
# cases run block rounds), the fork's tier, timer interrupts (most aimed
# at a tick that crosses in hot code with the interrupt enabled),
# self-modifying code (late code included: a stub written beside live
# code, run, rewritten and run again; and relinked blocks: a two-block
# loop whose second block is rewritten while the first stays live), PMP
# reprogramming (with verdict-changing churn of an unlocked entry), Sv39
# paging, and looping programs. The gate also fails when no case chained one block into
# another, when the multi-hart cases never ran a round, or when no access
# hit a translated TLB entry (NO PAGING), no PMP write changed a verdict
# (NO VERDICT CHURN), no access was answered by a host TLB entry (NO HOST
# HITS) or no host store landed in a page with watched lines (NO WATCHED
# HOST STORES).
run_gate equiv go run ./cmd/fuzzdiff -equiv 400

echo "== repo benchmark tests (every workload, every fast tier vs. the interpreter oracle)"
# benchmark/ is a nested module, so go test ./... above skips it. Its
# tests are the only ones that boot the hypervisor workload through every
# fast tier against an interpreter oracle (cycles, instret, console,
# monitor stats).
run_gate benchmark_test go -C benchmark test .

echo "== chaos campaign (classic and TEE fault decks, 12 faults per combo)"
# Every platform x firmware x policy combo, under each deck, must absorb
# or contain every fault: the guest makes progress again or the machine
# stops with a fault on record. The classic deck draws from every fault
# kind (bit flips, rogue firmware, interrupt storms, MMIO errors). The
# TEE deck draws from forged confidential-compute lifecycle hypercalls,
# double-donations, reclaim storms and probes at the Dorami monitor wall,
# and after every TEE-deck fault the locked-PMP wall must hold on every
# hart, the ACE lifecycle FSM must be structurally intact, and the
# monitor's protected-state fingerprint must not have changed.
run_gate chaos go run ./cmd/fuzzdiff -chaos 12

echo "== fault injection into fuzzed cases (200 cases per profile)"
# Randomized lockstep-generator cases run with containment armed while
# faults are injected: no panic may escape, and every monitor halt must
# leave a fault record.
run_gate inject go run ./cmd/fuzzdiff -inject 200

echo "== TEE lifecycle fuzz (shadow-model FSM sweep, 40 cases per profile)"
# Randomized enclave lifecycle programs against an independent shadow
# FSM: state, measurement, donation ledger, and wall checked after every
# single operation; exits nonzero if the sweep exercised no guards.
run_gate tee_fuzz go run ./cmd/fuzzdiff -tee 40

echo "== obs overhead (simulated cycles bit-identical with observability on vs. off)"
# The same built-in gosbi boot, once bare and once with the full
# observability layer attached (metrics + trace ring). Observability must
# stay architecturally invisible: identical cycle and instret counts.
plain=$(go run ./cmd/rvsim | tee "$obs_dir/obs_plain.log" \
    | grep -o 'cycles=[0-9]* instret=[0-9]*')
traced=$(go run ./cmd/rvsim -metrics-out "$obs_dir/boot_metrics.json" \
    -trace-out "$obs_dir/boot_trace.json" | tee "$obs_dir/obs_traced.log" \
    | grep -o 'cycles=[0-9]* instret=[0-9]*')
if [ "$plain" != "$traced" ]; then
    echo "obs overhead gate FAILED: bare [$plain] vs. observed [$traced]"
    exit 1
fi
echo "   $plain (identical; trace + metrics in $obs_dir)"

echo "verify: all gates passed (logs in $obs_dir)"
