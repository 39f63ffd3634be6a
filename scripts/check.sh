#!/usr/bin/env bash
# Full local gate: lint, build, test, and the end-to-end smoke runs.
#
# Every repro smoke runs from a fresh temporary work directory, with the
# binary called by absolute path, so the BENCH_*.json files a smoke
# writes land there and the committed copies in the repository (which
# only full runs refresh) are never overwritten. Each guard below reads
# its JSON from that directory.
#
# The parallel smoke exercises the threaded tile pipeline end to end
# (repro --smoke --threads 2), which cross-checks that 1-thread and
# 2-thread simulation produce bit-identical results and writes
# BENCH_tile_pipeline.json with measured host throughput. The fault
# smoke (repro --smoke --faults all --threads 2) injects every fault
# class at tiny M and fails on panics or silent pair losses, writing
# BENCH_fault_tolerance.json. The temporal smoke renders static clips
# with tile reuse off vs on and fails unless results are bit-identical
# and the cache actually replayed tiles
# (BENCH_temporal_coherence.json). The frontend smoke A/Bs the
# incremental geometry front-end against a full rebuild and fails on
# any divergence or wall-clock regression
# (BENCH_geometry_frontend.json). The broad-phase smoke A/Bs the
# screen-space broad phase against an unpruned run and fails on any
# divergence or wall-clock regression (BENCH_broadphase.json). The
# front-end figure guard checks that the paper figures print the same
# under either geometry front-end. The scene guards check that --scene
# narrows the A/B experiments (an alias outside an experiment's family
# exits 2). The
# overload smoke sweeps the
# frame-deadline governor down to a 25% cycle budget under the storm
# fault plan (repro exits non-zero on any budget violation or silent
# oracle miss) and re-runs it at 1/2/4 threads, requiring byte-identical
# BENCH_overload.json artifacts. The serve smoke pushes 8 staggered
# sessions through the multi-session scheduler at 1/2/4 workers and
# requires zero cross-session interference, a leak-free admission
# ledger, and a byte-identical report (modulo host_* wall-clock lines)
# across thread counts.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace --quiet

echo "== perfbench build + self-checks =="
# perfbench is its own cargo package, outside the workspace, so the
# workspace test run never builds it. Its tests include the exact-
# reference check, so an API change that breaks the benchmark's build
# or its reference fails here rather than only when it is next run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

repro="$PWD/target/release/repro"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== parallel pipeline smoke (repro --smoke --threads 2) =="
"$repro" --smoke --threads 2

echo "== fault injection smoke (repro --smoke --faults all --threads 2) =="
"$repro" --smoke --faults all --threads 2

echo "== trace smoke (repro --smoke --frames 2 --trace) =="
# Renders two traced frames, re-parses the Chrome JSON with the crate's
# own parser, and cross-checks heatmap totals against the unit's
# counters; repro exits non-zero if anything disagrees. Then make sure
# the artifacts actually landed and are non-empty.
trace_dir="$work/trace"
mkdir "$trace_dir"
"$repro" --smoke --frames 2 --trace "$trace_dir/trace.json"
for f in trace.json trace.occupancy.csv trace.overflows.csv trace.scan_cycles.csv trace.pairs.csv trace.rung.csv trace.reuse.csv trace.scan_skipped.csv trace.shed.csv trace.splice.csv trace.broadphase.csv; do
  [ -s "$trace_dir/$f" ] || { echo "trace smoke: missing or empty $f"; exit 1; }
done
grep -q '"traceEvents"' "$trace_dir/trace.json" || { echo "trace smoke: no traceEvents key"; exit 1; }

echo "== temporal coherence smoke (repro --smoke temporal --threads 2) =="
# Renders the static clips twice (reuse off, then on); repro exits
# non-zero if reuse changes a pair set or an rbcd.* counter. On top of
# that, assert the cache actually fired: a static scene rendered twice
# must replay tiles.
"$repro" --smoke temporal --threads 2
[ -s BENCH_temporal_coherence.json ] || { echo "coherence smoke: missing BENCH_temporal_coherence.json"; exit 1; }
grep -q '"identical_results": true' BENCH_temporal_coherence.json \
  || { echo "coherence smoke: reuse-on run was not result-identical"; exit 1; }
if grep -q '"reuse_rate": 0\.000000' BENCH_temporal_coherence.json; then
  echo "coherence smoke: static scenes replayed zero tiles"; exit 1
fi

echo "== hot-path smoke (repro --smoke hotpath) =="
# A/B of the span-mask rasterizer against the retained reference path:
# repro exits non-zero unless pairs, energy, and every shared counter
# are bit-identical across thread counts, reuse on/off, fault storms, a
# governed budget, and the batch service (the rbcd_bench::ab legs),
# then times both and writes
# BENCH_raster_hotpath.json. On top of that, guard against a wall-clock
# regression: the mask hot path must never be slower than the scalar
# reference it replaced.
"$repro" --smoke hotpath
[ -s BENCH_raster_hotpath.json ] || { echo "hotpath smoke: missing BENCH_raster_hotpath.json"; exit 1; }
grep -q '"identical_results": true' BENCH_raster_hotpath.json \
  || { echo "hotpath smoke: mask run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_raster_hotpath.json)
[ -n "$geo" ] || { echo "hotpath smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "hotpath smoke: mask path slower than reference (geomean ${geo}x)"; exit 1; }

echo "== geometry front-end smoke (repro --smoke frontend) =="
# A/B of the incremental geometry front-end (per-draw transform/clip/
# bin caching with delta binning) against a full per-frame rebuild:
# repro exits non-zero unless pairs, energy, and every non-geom.*
# counter are bit-identical across thread counts, reuse on/off, fault
# storms, a governed budget, and the batch service, then times both and
# writes BENCH_geometry_frontend.json. On top of that, guard against a
# wall-clock regression: the cached front-end must never be slower than
# the rebuild it skips.
"$repro" --smoke frontend
[ -s BENCH_geometry_frontend.json ] || { echo "frontend smoke: missing BENCH_geometry_frontend.json"; exit 1; }
grep -q '"identical_results": true' BENCH_geometry_frontend.json \
  || { echo "frontend smoke: incremental run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_geometry_frontend.json)
[ -n "$geo" ] || { echo "frontend smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "frontend smoke: incremental front-end slower than rebuild (geomean ${geo}x)"; exit 1; }

echo "== broad-phase smoke (repro --smoke broadphase) =="
# A/B of the screen-space broad phase (pair-infeasible draw pruning +
# single-occupant tile elision) against a broad-phase-off run: repro
# exits non-zero unless pairs and every non-image-side counter are
# bit-identical across thread counts, reuse on/off, fault storms, a
# governed budget, and the batch service, then times both on the
# sparse-swarm clips and writes BENCH_broadphase.json. On top of that,
# guard against a wall-clock regression: pruning must never be slower
# than rendering everything.
"$repro" --smoke broadphase
[ -s BENCH_broadphase.json ] || { echo "broadphase smoke: missing BENCH_broadphase.json"; exit 1; }
grep -q '"identical_results": true' BENCH_broadphase.json \
  || { echo "broadphase smoke: pruned run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_broadphase.json)
[ -n "$geo" ] || { echo "broadphase smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "broadphase smoke: broad phase slower than off (geomean ${geo}x)"; exit 1; }

echo "== front-end figure guard (repro fig8a fig8b table3 --frames 2) =="
# The paper figures must not depend on the geometry front-end: rebuild
# and incremental differ only in host wall-clock and the geom.*
# accounting counters, which no figure prints. Both runs' stdout and
# stderr must match once the host-time lines are stripped.
for fe in rebuild incremental; do
  "$repro" fig8a fig8b table3 --frames 2 --frontend "$fe" 2>&1 \
    | grep -v 'of host time' > "$trace_dir/figures.$fe.txt"
done
cmp -s "$trace_dir/figures.rebuild.txt" "$trace_dir/figures.incremental.txt" \
  || { echo "front-end figure guard: figures differ between --frontend rebuild and incremental"; exit 1; }

echo "== A/B --scene guards =="
# The A/B experiments narrow their workload family with --scene: an
# alias outside it is a usage error (exit 2), and a valid one writes an
# artifact with exactly that one scene row.
status=0
"$repro" --smoke hotpath --scene nope > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "scene guard: hotpath --scene nope exited $status, not 2"; exit 1; }
"$repro" --smoke broadphase --scene sparse
rows=$(grep -c '"name": ' BENCH_broadphase.json)
[ "$rows" -eq 1 ] || { echo "scene guard: broadphase --scene sparse wrote $rows scene rows, not 1"; exit 1; }

echo "== overload governor smoke (repro --smoke overload) =="
# Sweeps the frame-deadline governor over 100/75/50/25 % cycle budgets
# under the storm fault plan; repro itself exits non-zero on any budget
# violation (a frame overshooting its budget by more than one tile's
# slack) or any silent oracle miss (an unrouted non-shed pair absent
# from the exact partition). On top of that, the governed sweep must be
# deterministic: 1, 2, and 4 worker threads must land byte-identical
# artifacts.
"$repro" --smoke overload --threads 1
[ -s BENCH_overload.json ] || { echo "overload smoke: missing BENCH_overload.json"; exit 1; }
grep -q '"budget_violations": 0' BENCH_overload.json \
  || { echo "overload smoke: a frame blew its cycle budget"; exit 1; }
grep -q '"oracle_misses": 0' BENCH_overload.json \
  || { echo "overload smoke: silent oracle misses in the exact partition"; exit 1; }
cp BENCH_overload.json "$trace_dir/overload.1.json"
for t in 2 4; do
  "$repro" --smoke overload --threads "$t"
  cmp -s "$trace_dir/overload.1.json" BENCH_overload.json \
    || { echo "overload smoke: governed sweep diverged at $t threads"; exit 1; }
done

echo "== multi-session service smoke (repro serve --smoke) =="
# Admits 8 staggered sessions (mixed reuse/fault/governor policies) plus
# deliberate over-capacity and empty-clip submissions, serves them at
# 1/2/4 workers, and byte-compares every session's artifact against its
# solo run in-process; repro exits non-zero on any interference or
# ledger leak. On top of that, the report itself must be deterministic:
# after stripping host_* wall-clock lines, runs at 1, 2, and 4 threads
# must land byte-identical BENCH_multi_session.json artifacts.
"$repro" serve --smoke --threads 1
[ -s BENCH_multi_session.json ] || { echo "serve smoke: missing BENCH_multi_session.json"; exit 1; }
grep -q '"interference_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: cross-session interference detected"; exit 1; }
grep -q '"leak_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: admission ledger leaked a session"; exit 1; }
grep -v '"host_' BENCH_multi_session.json > "$trace_dir/serve.1.json"
for t in 2 4; do
  "$repro" serve --smoke --threads "$t"
  grep -v '"host_' BENCH_multi_session.json > "$trace_dir/serve.$t.json"
  cmp -s "$trace_dir/serve.1.json" "$trace_dir/serve.$t.json" \
    || { echo "serve smoke: session report diverged at $t threads"; exit 1; }
done

echo "OK: lint + build + tests + smokes all passed"
