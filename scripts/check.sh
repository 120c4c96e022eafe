#!/usr/bin/env bash
# check.sh — the repo's CI gate: formatting, vet, build, vet and tests
# of the segbench benchmark module, the full race-enabled test suite,
# an order-shuffled re-run (catches inter-test coupling), the
# segbus-conform differential smoke sweep, explorer and sweep
# determinism smokes and extra race rounds of the segbus-served stress
# test. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...

# The benchmark is its own module under segbench/, which the root
# `go test ./...` does not enter: vet and test it here, so a change to
# an API it calls fails CI instead of the benchmark run.
go -C segbench vet ./...
go -C segbench test ./...
go test -race ./...
go test -shuffle=on -count=1 ./...

# Differential fuzz smoke for scheme ingest: the single-pass scanner
# must read every document it accepts exactly as encoding/xml does,
# and ParsePSDF/ParsePSM must match the decoder-only path.
go test -run '^$' -fuzz '^FuzzParsePSDF$' -fuzztime 15s -fuzzminimizetime 5x ./internal/schema
go test -run '^$' -fuzz '^FuzzParsePSM$' -fuzztime 15s -fuzzminimizetime 5x ./internal/schema

# Differential fuzz smoke for the PSDF model: the map-free process set
# and Validate must equal their map-based oracles exactly (the same
# slices, and the same errors in the same order) on arbitrary models.
go test -run '^$' -fuzz '^FuzzModelValidate$' -fuzztime 15s -fuzzminimizetime 5x ./internal/psdf

# Differential fuzz smoke for the cache key: two parsed scheme pairs
# must share a core.Key exactly when their m2t renderings are equal.
go test -run '^$' -fuzz '^FuzzKeyMatchesRendering$' -fuzztime 15s -fuzzminimizetime 5x ./internal/core

# Differential fuzz smoke for request decoding: the single-pass
# /estimate reader must decode every body to the same request, and
# fail with the same error, as encoding/json.
go test -run '^$' -fuzz '^FuzzDecodeEstimate$' -fuzztime 15s -fuzzminimizetime 5x ./internal/serve

# Differential fuzz smoke for report encoding: the hand-written
# Report.AppendJSON must produce exactly encoding/json's MarshalIndent
# rendering of the report's mirror structs, for extreme integer fields,
# any section lengths and names that need escaping.
go test -run '^$' -fuzz '^FuzzReportJSON$' -fuzztime 15s -fuzzminimizetime 5x ./internal/emulator

# Differential fuzz smoke for exact reachability: the persistence
# reduction must agree with the breadth-first product exploration, and
# the schedule fixpoint that decides preflight's verdict with both.
go test -run '^$' -fuzz '^FuzzProduct$' -fuzztime 15s -fuzzminimizetime 5x ./internal/automata

# Differential fuzz smoke for the shared admission: every DSL document
# that parses is analyzed without panicking, and every consumer of the
# one validated pair (emulator, bounds, automata, codegen, the DSL
# pass and the analyzers) agrees with the gate it used to run itself.
go test -run '^$' -fuzz '^FuzzAnalyze$' -fuzztime 15s -fuzzminimizetime 5x ./internal/analyze

# Bench smoke: every benchmark must still run (one iteration each) —
# catches bit-rot in the benchmarks, and their error checks (status
# codes, verdicts, pruning floors) still gate, without paying for
# stable timings.
go test -bench=. -benchtime=1x -run '^$' ./...

# Metrics golden diff: segbus-emu -metrics-json over the MP3 scenario
# must stay byte-identical to the reviewed golden (deterministic
# counters only; rates are excluded from this export by design).
metrics_tmp=$(mktemp)
vet_exact_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp" "$vet_exact_tmp"' EXIT
go run ./cmd/segbus-emu \
	-psdf testdata/golden/mp3-psdf.xsd -psm testdata/golden/mp3-psm.xsd \
	-metrics-json "$metrics_tmp" >/dev/null
diff -u testdata/golden/mp3-metrics.json "$metrics_tmp"

# Exact-reachability smoke: vet every scenario — the deadlocking ones
# included — with the SB050 counterexample expanded, and diff the
# concatenated reports against the reviewed golden. Regenerate after a
# deliberate change with scripts/update-vet-exact.sh.
for f in testdata/scenarios/*.sbd testdata/scenarios/deadlock/*.sbd; do
	echo "== $f" >>"$vet_exact_tmp"
	go run ./cmd/segbus-vet -model "$f" -why SB050 >>"$vet_exact_tmp" || true
done
diff -u testdata/scenarios/vet-exact.golden "$vet_exact_tmp"

# Differential conformance smoke sweep: 200 deterministic cases (seed
# 1, scenario-corpus seeded) through the full oracle battery. The JSON
# summary goes to stdout for CI artifact collection; a non-zero exit
# means an oracle failed and a shrunk reproducer was written under
# testdata/conform/repros/.
go run ./cmd/segbus-conform -n 200 -seed 1 -corpus testdata/scenarios -json

# Request-tracing gates. The span pool and the flight-recorder ring
# are lock-free/pool-backed shared state on the request path: give
# their suite extra race-enabled rounds in fresh processes. The
# /debug/requests document must stay byte-identical to the reviewed
# golden (timings zeroed; regenerate a deliberate change with
# UPDATE_GOLDEN=1), and the unsampled hot path must stay within 5% of
# a server with tracing disabled (in-process A/B, built out under
# -race, so run it separately here).
go test -race -count=2 ./internal/obs/reqtrace
go test -count=1 -run TestDebugRequestsGolden ./internal/serve
go test -count=1 -run TestTracingOverheadSmoke ./internal/serve

# Serve stress under the race detector, extra rounds: the suite above
# already ran it once; repeating it in fresh processes varies the
# goroutine schedules the shared cache/pool/flight/drain state is
# exposed to. The single-flight, batch-saturation and machine-pool
# stress suites ride along for the same reason — the pool hands one
# arena to many goroutines in sequence, which is exactly the handoff
# the race detector is for. So does the rejected-duplicates batch
# test: batch preflight runs inside the fan-out goroutines.
go test -race -count=2 -run 'TestServeStress|TestSingleFlight|TestBatchSaturatedPool|TestMachinePoolStress|TestBatchRejectedDuplicates' ./internal/serve

# Machine-reuse correctness gates, race-enabled: the conform-driven
# differential battery (hundreds of generated cases through ONE pooled
# machine, byte-compared against fresh runs) and the dirty-machine
# property test (Reset after failed/aborted/deadlocked runs restores a
# machine byte-for-byte).
go test -race -count=1 -run 'TestPooledReuseBattery' ./internal/conform
go test -race -count=1 -run 'TestMachineReuse' ./internal/emulator

# Differential load smoke: the traffic generator drives the full
# in-process HTTP stack with a mixed warm/cold corpus (batches of 4,
# seeded, scenario-corpus mutations included), diffing every served
# report against the CLI pipeline and proving that a concurrent
# identical burst coalesces to a single emulation. Non-zero exit on
# any byte mismatch, an unproven proof, or a warm run that emulates
# as often as it serves. -slowest exercises the tracing round trip:
# every request carries a forced traceparent and the report ends with
# server-side stage breakdowns read back from /debug/requests.
go run ./cmd/segbus-load -seed 1 -models 12 -requests 300 -concurrency 8 \
	-hit-ratio 0.6 -batch 4 -corpus testdata/scenarios -diff -prove-coalescing \
	-slowest 5 -json

# Explorer determinism smoke: the same space through segbus-explore at
# -workers 1 and -workers 8 (different seeds, too) must produce
# byte-identical stdout and JSON reports — the work-stealing schedule
# may differ, the merged output may not. The diff is the CLI-level
# twin of TestReferenceSpaceDeterminism's library assertion.
explore_dir=$(mktemp -d)
trap 'rm -f "$metrics_tmp" "$vet_exact_tmp"; rm -rf "$explore_dir"' EXIT
mkdir "$explore_dir/a" "$explore_dir/b"
go run ./cmd/segbus-explore -app mp3 -segments 1,2,3,4 -sizes 9,18,36,72 \
	-headers 0,25,100 -cahops 0,100 -wave 8 -workers 1 -seed 7 \
	-json "$explore_dir/a/report.json" >"$explore_dir/a/stdout"
go run ./cmd/segbus-explore -app mp3 -segments 1,2,3,4 -sizes 9,18,36,72 \
	-headers 0,25,100 -cahops 0,100 -wave 8 -workers 8 -seed 13 \
	-json "$explore_dir/b/report.json" >"$explore_dir/b/stdout"
# stdout ends with "wrote <path>"; the paths legitimately differ, the
# summary and front table above them may not.
diff -u <(grep -v '^wrote ' "$explore_dir/a/stdout") \
	<(grep -v '^wrote ' "$explore_dir/b/stdout")
diff -u "$explore_dir/a/report.json" "$explore_dir/b/report.json"

# Sweep determinism smoke: the same curves through segbus-sweep at
# -workers 1 -seed 1 and -workers 8 -seed 13 must print byte-identical
# tables and write byte-identical CSV files — tail stealing reorders
# the points' evaluation, never the curve.
sweep_smoke() { # param values
	for run in "a 1 1" "b 8 13"; do
		read -r dir workers seed <<<"$run"
		go run ./cmd/segbus-sweep -model testdata/scenarios/jpeg-3seg.sbd \
			-param "$1" -segment 2 -values "$2" -workers "$workers" -seed "$seed" \
			-csv "$explore_dir/$dir/$1.csv" >"$explore_dir/$dir/$1.stdout"
	done
	diff -u <(grep -v '^wrote ' "$explore_dir/a/$1.stdout") \
		<(grep -v '^wrote ' "$explore_dir/b/$1.stdout")
	diff -u "$explore_dir/a/$1.csv" "$explore_dir/b/$1.csv"
}
sweep_smoke package-size 1,2,3,4,6,8,16,32
sweep_smoke segment-clock 50MHz,91MHz,100MHz,150MHz,200MHz

# The work-stealing scheduler and the explorer's wave loop hand deques
# and pooled machines between goroutines; give both suites extra
# race-enabled rounds in fresh processes.
go test -race -count=2 ./internal/parallel
go test -race -short -count=2 ./internal/explore
# Every candidate batch (core.Explore rankings, sweep curves) runs on
# StealRun over one shared machine pool per batch; exercise that shared
# path concurrently, many times.
go test -race -count=10 -run 'Explore|Sweep|Curve|Run' ./internal/core ./internal/sweep ./internal/emulator/pool

# Single-worker warm-mix load smoke: every served report, raw-index
# hits included, must be byte-identical to the CLI pipeline.
go run ./cmd/segbus-load -seed 2 -models 8 -requests 200 -concurrency 1 \
	-hit-ratio 0.8 -batch 1 -corpus testdata/scenarios -diff -json

# Raw-hit fence: a verbatim repeat must stay on the raw-index fast
# path — a bounded allocation count and under half a canonical hit's
# time (parse and key; preflight only runs on a miss), measured
# in-process against itself. Extra fresh-process
# rounds, since the timing half is a min-of-N comparison.
go test -count=5 -run '^TestRawHitFence$' ./internal/serve
