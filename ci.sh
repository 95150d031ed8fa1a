#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Everything runs offline against the vendored toolchain.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test --workspace -q"
cargo test --workspace -q

# The slow suites sit behind #[ignore] so the default `cargo test` stays
# fast; run them here.
echo "== cargo test --workspace -q -- --ignored"
cargo test --workspace -q -- --ignored

# The workspace run above unifies ppa-core's `verify` feature on (through
# ppa-verify). These two crates also have a graph without it; test that
# one too, so the simulator is checked with and without the verify hooks.
echo "== cargo test -p ppa-core -q (verify feature off)"
cargo test -p ppa-core -q

echo "== cargo test -p ppa-smp -q (verify feature off)"
cargo test -p ppa-smp -q

# Parallel smoke run: auto-sized pool, reduced trace length, a mix of
# simulation-heavy and static experiments. Timings land on stderr.
echo "== PPA_JOBS=0 repro smoke (fig11 table4 ckpt)"
time PPA_JOBS=0 PPA_REPRO_LEN=1200 \
    cargo run -q -p ppa-bench --release --bin repro -- fig11 table4 ckpt > /dev/null

# The shared-state thread sweep on the ppa-smp machine (8–64 cores).
echo "== PPA_JOBS=0 repro fig19 smoke (multi-core machine)"
time PPA_JOBS=0 PPA_REPRO_LEN=1200 \
    cargo run -q -p ppa-bench --release --bin repro -- fig19 > /dev/null

# The full reproduction at default length must match the captured run
# in results/repro_all.txt byte for byte, so the file cannot go stale.
echo "== repro all vs results/repro_all.txt"
time PPA_JOBS=0 cargo run -q -p ppa-bench --release --bin repro -- all \
    > /tmp/ppa_ci_repro_all.txt 2> /dev/null
diff results/repro_all.txt /tmp/ppa_ci_repro_all.txt

# Distributed smoke: the same experiments through a loopback grid must
# be byte-identical to the local run above.
echo "== repro loopback grid smoke (fig11 table4 ckpt, 2 workers)"
PPA_JOBS=0 PPA_REPRO_LEN=1200 \
    cargo run -q -p ppa-bench --release --bin repro -- fig11 table4 ckpt autopersist \
    > /tmp/ppa_ci_local.txt 2> /dev/null
time PPA_JOBS=0 PPA_REPRO_LEN=1200 \
    cargo run -q -p ppa-bench --release --bin repro -- --grid loopback:2 fig11 table4 ckpt autopersist \
    > /tmp/ppa_ci_grid.txt 2> /dev/null
diff /tmp/ppa_ci_local.txt /tmp/ppa_ci_grid.txt

# Same run with a worker killed mid-lease: the re-dispatch path must not
# perturb a single output byte.
echo "== repro loopback grid smoke with injected worker death"
PPA_JOBS=0 PPA_REPRO_LEN=1200 PPA_GRID_DIE_AFTER=3 \
    cargo run -q -p ppa-bench --release --bin repro -- --grid loopback:3 fig11 table4 ckpt autopersist \
    > /tmp/ppa_ci_grid_die.txt 2> /dev/null
diff /tmp/ppa_ci_local.txt /tmp/ppa_ci_grid_die.txt

# The static persist-ordering analysis engine, fixed seed: all 41
# workloads must lint clean under AutoPersist (exit code enforces it,
# including the fewer-barriers-than-capri bound), the race detector must
# pass all four shared generators and catch the injected defects, and the
# soundness cross-check must report zero static-clean-but-divergent
# mutants. The output must also be byte-identical at any job count.
echo "== ppa-verify lint + analyze (static persist-ordering engine)"
cargo run -q -p ppa-verify --release -- lint --len 1200 > /dev/null 2> /dev/null
cargo run -q -p ppa-verify --release -- analyze --len 1200 \
    > /tmp/ppa_ci_analyze.txt 2> /dev/null
grep -q "unsound=0" /tmp/ppa_ci_analyze.txt
grep -q "second writer caught" /tmp/ppa_ci_analyze.txt
grep -q "race judges: agree" /tmp/ppa_ci_analyze.txt
PPA_JOBS=0 cargo run -q -p ppa-verify --release -- analyze --len 1200 \
    > /tmp/ppa_ci_analyze_jobs.txt 2> /dev/null
diff /tmp/ppa_ci_analyze.txt /tmp/ppa_ci_analyze_jobs.txt

# lint --json: every emitted diagnostic must be one valid JSON object
# with the full field set, validated by an independent parser.
echo "== ppa-verify lint --json validation (python3)"
cargo run -q -p ppa-verify --release -- lint --len 1200 --json \
    > /tmp/ppa_ci_lint_json.txt 2> /dev/null
python3 - <<'EOF'
import json
lines = [l for l in open("/tmp/ppa_ci_lint_json.txt") if l.startswith("{")]
assert lines, "no JSON diagnostics emitted"
for line in lines:
    d = json.loads(line)
    for k in ("app", "profile", "rule", "severity", "pos", "pc", "message"):
        assert k in d, f"missing {k}: {d}"
    assert d["severity"] in ("error", "warning"), d
print(f"lint --json ok: {len(lines)} diagnostics")
EOF

# The crash oracle over the grid, same byte-identity bar.
echo "== ppa-verify oracle loopback grid smoke (2 workers)"
cargo run -q -p ppa-verify --release -- oracle --len 800 \
    > /tmp/ppa_ci_oracle_local.txt 2> /dev/null
# Golden output: the pass count and the exercised-recovery count, which
# depends on the NVM state the crash path leaves before CSQ replay.
diff results/verify_oracle_800.txt /tmp/ppa_ci_oracle_local.txt
time cargo run -q -p ppa-verify --release -- oracle --len 800 --grid loopback:2 \
    > /tmp/ppa_ci_oracle_grid.txt 2> /dev/null
diff /tmp/ppa_ci_oracle_local.txt /tmp/ppa_ci_oracle_grid.txt

# The oracle's re-dispatch path from the CLI: a loopback worker killed
# mid-lease must not perturb a single output byte.
echo "== ppa-verify oracle loopback grid smoke with injected worker death"
PPA_GRID_DIE_AFTER=3 cargo run -q -p ppa-verify --release -- oracle --len 800 \
    --grid loopback:3 > /tmp/ppa_ci_oracle_die.txt 2> /dev/null
diff /tmp/ppa_ci_oracle_local.txt /tmp/ppa_ci_oracle_die.txt

# Full-stack self-test: every unit kind (repro, oracle, litmus, dse)
# over loopback TCP with an injected mid-lease worker death.
echo "== ppa-grid selftest (3 workers, one dies mid-lease)"
time cargo run -q -p ppa-gridcli --release --bin ppa-grid -- selftest --workers 3 2> /dev/null

# Telemetry must never perturb stdout: the worker-death grid run again,
# now with every telemetry surface on, must match the local run byte
# for byte while also producing the metrics and trace files.
echo "== repro telemetry smoke (stdout identity under --metrics/--trace-out)"
PPA_JOBS=0 PPA_REPRO_LEN=1200 PPA_GRID_DIE_AFTER=3 \
    cargo run -q -p ppa-bench --release --bin repro -- --grid loopback:3 \
    --metrics --metrics-json /tmp/ppa_ci_metrics.json --trace-out /tmp/ppa_ci_trace.json \
    fig11 table4 ckpt autopersist > /tmp/ppa_ci_grid_telem.txt 2> /dev/null
diff /tmp/ppa_ci_local.txt /tmp/ppa_ci_grid_telem.txt

# The checker merges its verify.check.* metrics into the snapshot
# `repro` wrote, so one file holds both.
echo "== ppa-verify check --metrics-json-merge"
cargo run -q -p ppa-verify --release -- check --len 600 \
    --metrics-json-merge /tmp/ppa_ci_metrics.json > /tmp/ppa_ci_check.txt 2> /dev/null
# Golden output: per-app cycle counts gate the run loop's stop rule.
diff results/verify_check_600.txt /tmp/ppa_ci_check.txt

# The default length, at which check times are quoted.
echo "== ppa-verify check vs results/verify_check.txt"
time cargo run -q -p ppa-verify --release -- check > /tmp/ppa_ci_check_default.txt 2> /dev/null
diff results/verify_check.txt /tmp/ppa_ci_check_default.txt

# The checker self-test: per-fault violation counts depend on the bounded
# loop's stop rule, so they are golden too.
echo "== ppa-verify mutate vs results/verify_mutate.txt"
cargo run -q -p ppa-verify --release -- mutate > /tmp/ppa_ci_mutate.txt 2> /dev/null
diff results/verify_mutate.txt /tmp/ppa_ci_mutate.txt

# Smoke-validate the emitted JSON with an independent parser: it must
# parse, be non-empty, and contain the expected metric families. The
# trace is the merged cross-host timeline from the loopback grid run
# above: local complete (X) events plus clock-corrected worker span
# fragments (matched B/E pairs on worker PIDs >= 1000), everything
# ts-sorted and stamped with the one coordinator-minted trace id.
echo "== telemetry JSON validation (python3)"
python3 - <<'EOF'
import json, collections
m = json.load(open("/tmp/ppa_ci_metrics.json"))
assert m, "metrics JSON is empty"
for fam in ("grid.coord.", "verify.check.", "pool.", "sim.", "span.experiment.", "lint.autopersist."):
    assert any(k.startswith(fam) for k in m), f"no {fam}* metrics"
assert all(isinstance(v, (int, float)) for v in m.values()), "non-numeric metric value"
ev = json.load(open("/tmp/ppa_ci_trace.json"))["traceEvents"]
assert ev, "trace is empty"
assert all(e["ph"] in ("X", "B", "E") for e in ev), "unexpected trace phase"
assert all(a["ts"] <= b["ts"] for a, b in zip(ev, ev[1:])), "trace not ts-sorted"
assert any(e["ph"] == "X" for e in ev), "no local complete events"
assert any(e["pid"] >= 1000 for e in ev), "no spans from worker PIDs"
ids = set(e["args"]["trace_id"] for e in ev)
assert len(ids) == 1, f"expected one trace id, got {ids}"
stacks = collections.defaultdict(int)
for e in ev:
    if e["ph"] == "B":
        stacks[(e["pid"], e["tid"])] += 1
    elif e["ph"] == "E":
        lane = (e["pid"], e["tid"])
        assert stacks[lane] > 0, f"E without B on {lane}"
        stacks[lane] -= 1
assert all(v == 0 for v in stacks.values()), "unmatched B events"
workers = sorted(set(e["pid"] for e in ev if e["pid"] >= 1000))
print(f"telemetry ok: {len(m)} metrics, {len(ev)} trace events, "
      f"trace id {ids.pop()}, worker pids {workers}")
EOF

# Exhaustive failure-point mode of the smp crash oracle: every cycle of
# every shared workload is a failure point, with FSM-level mid-flush
# tearing probes, plus the arbiter mutation self-tests. Both smp modes
# must print the same bytes at any job count.
echo "== ppa-verify smp --fail-points all (exhaustive failure points)"
time PPA_JOBS=1 cargo run -q -p ppa-verify --release -- smp --fail-points all \
    > /tmp/ppa_ci_smp_all_j1.txt 2> /dev/null
PPA_JOBS=8 cargo run -q -p ppa-verify --release -- smp --fail-points all \
    > /tmp/ppa_ci_smp_all_j8.txt 2> /dev/null
diff /tmp/ppa_ci_smp_all_j1.txt /tmp/ppa_ci_smp_all_j8.txt
# Golden output, as results/repro_all.txt is gated: a checkpoint-codec or
# recovery change that moves any crash verdict or cell count fails here.
diff results/smp_fail_points_all.txt /tmp/ppa_ci_smp_all_j1.txt

echo "== ppa-verify smp determinism (sampled failure points)"
PPA_JOBS=1 cargo run -q -p ppa-verify --release -- smp > /tmp/ppa_ci_smp_j1.txt 2> /dev/null
PPA_JOBS=8 cargo run -q -p ppa-verify --release -- smp > /tmp/ppa_ci_smp_j8.txt 2> /dev/null
diff /tmp/ppa_ci_smp_j1.txt /tmp/ppa_ci_smp_j8.txt

# The persistency-model conformance engine, pinned seed: a 256-test
# litmus batch against the axiomatic model across exhaustive failure
# points must report zero machine-unsound divergences, and every entry
# in the waiver table must actually be exercised (a waiver nothing hits
# is stale and fails the run). Output must be byte-identical at any job
# count, over a loopback grid, and with a worker killed mid-lease.
echo "== ppa-litmus conformance gate (256 tests, pinned seed)"
time PPA_JOBS=1 cargo run -q -p ppa-litmus --release -- run --tests 256 --seed 1 \
    --metrics-json /tmp/ppa_ci_litmus.json > /tmp/ppa_ci_litmus_local.txt 2> /dev/null
grep -q "machine-unsound=0" /tmp/ppa_ci_litmus_local.txt
# Golden output: every test's cells, torn flushes and reached states.
diff results/litmus_256_seed1.txt /tmp/ppa_ci_litmus_local.txt
grep -q "waivers: ppa-prefix-strength (model-incomplete): exercised by" /tmp/ppa_ci_litmus_local.txt
if grep -q "exercised by 0/" /tmp/ppa_ci_litmus_local.txt; then
    echo "ci: a waiver was never exercised"; exit 1
fi
if grep -q "stale waivers" /tmp/ppa_ci_litmus_local.txt; then
    echo "ci: stale waiver entries"; exit 1
fi
PPA_JOBS=8 cargo run -q -p ppa-litmus --release -- run --tests 256 --seed 1 \
    > /tmp/ppa_ci_litmus_jobs.txt 2> /dev/null
diff /tmp/ppa_ci_litmus_local.txt /tmp/ppa_ci_litmus_jobs.txt
PPA_JOBS=0 cargo run -q -p ppa-litmus --release -- run --tests 256 --seed 1 --grid loopback:3 \
    > /tmp/ppa_ci_litmus_grid.txt 2> /dev/null
diff /tmp/ppa_ci_litmus_local.txt /tmp/ppa_ci_litmus_grid.txt
PPA_JOBS=0 PPA_GRID_DIE_AFTER=2 cargo run -q -p ppa-litmus --release -- run \
    --tests 256 --seed 1 --grid loopback:3 > /tmp/ppa_ci_litmus_die.txt 2> /dev/null
diff /tmp/ppa_ci_litmus_local.txt /tmp/ppa_ci_litmus_die.txt

# Independent validation of the litmus metrics snapshot.
echo "== litmus metrics JSON validation (python3)"
python3 - <<'EOF'
import json
m = json.load(open("/tmp/ppa_ci_litmus.json"))
fams = [k for k in m if k.startswith("litmus.")]
assert fams, "no litmus.* metrics"
for k in ("litmus.tests", "litmus.cells", "litmus.cells.torn",
          "litmus.states.reached", "litmus.states.allowed",
          "litmus.unsound", "litmus.waived", "litmus.coverage"):
    assert k in m, f"missing {k}"
assert m["litmus.tests"] == 256, m["litmus.tests"]
assert m["litmus.unsound"] == 0, m["litmus.unsound"]
assert m["litmus.cells.torn"] > 0, "tearing probe never ran"
print(f"litmus metrics ok: {len(fams)} litmus.* metrics")
EOF

# The persistent service daemon: two concurrent clients submit the
# oracle fan-out while the daemon is SIGKILLed mid-queue and restarted
# from its checkpoint; both clients' stdout must be byte-identical to
# the local oracle run, and a third pass must be served entirely from
# the content-addressed cache (asserted via the daemon's metrics JSON).
echo "== ppa-serve gate (daemon, crash/restart, content-addressed cache)"
SERVE_CKPT=/tmp/ppa_ci_serve.ppsc
SERVE_PORT=/tmp/ppa_ci_serve.port
SERVE_METRICS=/tmp/ppa_ci_serve_metrics.json
rm -f "$SERVE_CKPT" "$SERVE_PORT" "$SERVE_METRICS"
./target/release/ppa-serve daemon --listen 127.0.0.1:0 \
    --checkpoint "$SERVE_CKPT" --checkpoint-interval 1 \
    --metrics-json "$SERVE_METRICS" --port-file "$SERVE_PORT" 2> /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_PORT" ] && break; sleep 0.1; done
SERVE_ADDR=$(cat "$SERVE_PORT")
# A single-slot worker keeps the queue busy long enough for the kill
# below to land mid-queue.
./target/release/ppa-grid work --connect "$SERVE_ADDR" --jobs 1 2> /dev/null &
SERVE_WORK1=$!
./target/release/ppa-verify oracle --len 800 --grid "serve:$SERVE_ADDR" \
    > /tmp/ppa_ci_serve_a.txt 2> /dev/null &
SERVE_CLIENT_A=$!
./target/release/ppa-verify oracle --len 800 --grid "serve:$SERVE_ADDR" \
    > /tmp/ppa_ci_serve_b.txt 2> /dev/null &
SERVE_CLIENT_B=$!
# Let the fan-out get mid-queue (and a checkpoint tick land), then
# SIGKILL the daemon and restart it on the same port and checkpoint.
for _ in $(seq 1 200); do
    E=$(./target/release/ppa-serve stats --connect "$SERVE_ADDR" 2> /dev/null \
        | sed -n 's/.* entries=\([0-9]*\).*/\1/p')
    [ "${E:-0}" -ge 10 ] && break
    sleep 0.1
done
sleep 1.2
kill -9 "$SERVE_PID"
wait "$SERVE_WORK1" 2> /dev/null || true
./target/release/ppa-serve daemon --listen "$SERVE_ADDR" \
    --checkpoint "$SERVE_CKPT" --checkpoint-interval 1 \
    --metrics-json "$SERVE_METRICS" 2> /dev/null &
SERVE_PID=$!
PPA_JOBS=0 ./target/release/ppa-grid work --connect "$SERVE_ADDR" 2> /dev/null &
SERVE_WORK2=$!
wait "$SERVE_CLIENT_A" "$SERVE_CLIENT_B"
diff /tmp/ppa_ci_oracle_local.txt /tmp/ppa_ci_serve_a.txt
diff /tmp/ppa_ci_oracle_local.txt /tmp/ppa_ci_serve_b.txt
# Third pass: everything is now cached; stdout must not change a byte.
./target/release/ppa-verify oracle --len 800 --grid "serve:$SERVE_ADDR" \
    > /tmp/ppa_ci_serve_c.txt 2> /dev/null
diff /tmp/ppa_ci_oracle_local.txt /tmp/ppa_ci_serve_c.txt
# Stop the daemon and wait for it: `Daemon::run` writes its final
# metrics snapshot on stop, so the snapshot holds the third pass's hits.
./target/release/ppa-serve stop --connect "$SERVE_ADDR" > /dev/null 2> /dev/null
wait "$SERVE_PID"
python3 - <<'EOF'
import json
m = json.load(open("/tmp/ppa_ci_serve_metrics.json"))
# The snapshot comes from the *restarted* daemon: hits are guaranteed
# (the cached third pass), misses only occur if the kill landed before
# every unit was computed and checkpointed, so they are not required.
assert m.get("serve.cache.hits", 0) > 0, "no cache hits recorded"
assert m.get("serve.cache.entries", 0) > 0, "cache is empty"
for k in ("serve.queue.depth", "serve.clients.sessions"):
    assert k in m, f"missing {k}"
print(f"serve ok: hits={m['serve.cache.hits']} entries={m['serve.cache.entries']}")
EOF
wait "$SERVE_WORK2" 2> /dev/null || true
rm -f "$SERVE_CKPT" "$SERVE_PORT"

# The design-space exploration fleet, pinned seed: a tiny 2-axis sweep
# over 2 workloads must prune >= 50% of the raw grid via sensitivity
# freezing (asserted from the metrics JSON), and the frontier output
# must be byte-identical across repeated runs, PPA_JOBS=1 vs 4, and a
# loopback grid with an injected worker death.
echo "== ppa-dse gate (sensitivity-pruned sweep, deterministic frontier)"
DSE_ARGS="sweep --axes csq,region --apps sjeng,gobmk --len 1500 --seed 1"
PPA_JOBS=1 ./target/release/ppa-dse $DSE_ARGS \
    --metrics-json /tmp/ppa_ci_dse_metrics.json > /tmp/ppa_ci_dse_a.txt 2> /dev/null
PPA_JOBS=1 ./target/release/ppa-dse $DSE_ARGS > /tmp/ppa_ci_dse_b.txt 2> /dev/null
diff /tmp/ppa_ci_dse_a.txt /tmp/ppa_ci_dse_b.txt
PPA_JOBS=4 ./target/release/ppa-dse $DSE_ARGS > /tmp/ppa_ci_dse_j4.txt 2> /dev/null
diff /tmp/ppa_ci_dse_a.txt /tmp/ppa_ci_dse_j4.txt
PPA_JOBS=0 PPA_GRID_DIE_AFTER=2 ./target/release/ppa-dse $DSE_ARGS --grid loopback:2 \
    > /tmp/ppa_ci_dse_die.txt 2> /dev/null
diff /tmp/ppa_ci_dse_a.txt /tmp/ppa_ci_dse_die.txt
python3 - <<'EOF'
import json
m = json.load(open("/tmp/ppa_ci_dse_metrics.json"))
assert m.get("dse.pruned.pct", 0) >= 50.0, f"pruned {m.get('dse.pruned.pct')}% < 50%"
assert m.get("dse.cells", 0) > 0, "no cells simulated"
assert m.get("dse.frontier.size", 0) > 0, "empty frontier"
frozen = m.get("dse.freezes.threshold", 0) + m.get("dse.freezes.plateau", 0)
assert frozen > 0, "no axis froze by measured sensitivity"
print(f"dse ok: pruned={m['dse.pruned.pct']:.1f}% cells={m['dse.cells']} "
      f"frontier={m['dse.frontier.size']} sensitivity-freezes={frozen}")
EOF

# The same sweep against a bounded ppa-serve daemon, twice: the repeat
# must be served from the content-addressed cache (hits > 0) and both
# stdouts must match the local run byte for byte.
echo "== ppa-dse serve gate (cached re-sweep)"
DSE_PORT=/tmp/ppa_ci_dse_serve.port
rm -f "$DSE_PORT"
./target/release/ppa-serve daemon --listen 127.0.0.1:0 \
    --cache-max-entries 4096 --port-file "$DSE_PORT" 2> /dev/null &
DSE_SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$DSE_PORT" ] && break; sleep 0.1; done
DSE_ADDR=$(cat "$DSE_PORT")
PPA_JOBS=4 ./target/release/ppa-grid work --connect "$DSE_ADDR" 2> /dev/null &
DSE_WORK_PID=$!
./target/release/ppa-dse $DSE_ARGS --grid "serve:$DSE_ADDR" \
    > /tmp/ppa_ci_dse_s1.txt 2> /dev/null
./target/release/ppa-dse $DSE_ARGS --grid "serve:$DSE_ADDR" \
    > /tmp/ppa_ci_dse_s2.txt 2> /dev/null
diff /tmp/ppa_ci_dse_a.txt /tmp/ppa_ci_dse_s1.txt
diff /tmp/ppa_ci_dse_a.txt /tmp/ppa_ci_dse_s2.txt
DSE_HITS=$(./target/release/ppa-serve stats --connect "$DSE_ADDR" 2> /dev/null \
    | sed -n 's/.*hits=\([0-9]*\).*/\1/p')
[ "${DSE_HITS:-0}" -gt 0 ] || { echo "ci: dse re-sweep hit the cache 0 times"; exit 1; }
echo "dse serve ok: cache hits=$DSE_HITS"

# `repro` as a client of the same daemon: the registry-backed worker
# serves repro.* units too, and stdout must match the local run.
echo "== repro serve-client gate (daemon submission, stdout identity)"
PPA_JOBS=0 PPA_REPRO_LEN=1200 ./target/release/repro --grid "serve:$DSE_ADDR" \
    fig11 table4 ckpt autopersist > /tmp/ppa_ci_serve_repro.txt 2> /dev/null
diff /tmp/ppa_ci_local.txt /tmp/ppa_ci_serve_repro.txt

# The live progress UI: stats must now report the eviction counter, and
# `watch` must render its frames entirely on stderr (stdout byte-empty).
echo "== ppa-serve watch gate (stderr-only progress UI)"
./target/release/ppa-serve stats --connect "$DSE_ADDR" 2> /dev/null \
    | grep -q "evictions=" || { echo "ci: stats line lacks evictions"; exit 1; }
./target/release/ppa-serve watch --connect "$DSE_ADDR" --interval 0.2 --count 2 \
    > /tmp/ppa_ci_watch_out.txt 2> /tmp/ppa_ci_watch_err.txt
[ -s /tmp/ppa_ci_watch_out.txt ] && { echo "ci: watch wrote to stdout"; exit 1; }
grep -q "queue=" /tmp/ppa_ci_watch_err.txt
grep -q "  cache: entries=" /tmp/ppa_ci_watch_err.txt
./target/release/ppa-serve stop --connect "$DSE_ADDR" > /dev/null 2> /dev/null
wait "$DSE_SERVE_PID" "$DSE_WORK_PID" 2> /dev/null || true
rm -f "$DSE_PORT"

# The cycle-attribution profiler: a prof-feature build must keep stdout
# byte-identical while exporting the prof.* metrics family and a
# non-empty collapsed-stack (flamegraph) file.
echo "== repro --profile gate (prof feature, stdout identity + prof.* family)"
PPA_JOBS=0 PPA_REPRO_LEN=1200 \
    cargo run -q -p ppa-bench --release --features prof --bin repro -- \
    --profile --prof-out /tmp/ppa_ci_prof.txt \
    --metrics-json /tmp/ppa_ci_prof_metrics.json \
    fig11 table4 ckpt autopersist > /tmp/ppa_ci_prof_stdout.txt 2> /dev/null
diff /tmp/ppa_ci_local.txt /tmp/ppa_ci_prof_stdout.txt
python3 - <<'EOF'
import json
m = json.load(open("/tmp/ppa_ci_prof_metrics.json"))
prof = {k: v for k, v in m.items() if k.startswith("prof.")}
assert any(k.startswith("prof.core.step.") for k in prof), f"no prof.core.step.* in {sorted(prof)}"
assert sum(v for k, v in prof.items() if k.endswith(".ns")) > 0, "profiler attributed zero time"
stacks = [l for l in open("/tmp/ppa_ci_prof.txt") if l.strip()]
assert stacks, "collapsed-stack export is empty"
assert all(len(l.split()) == 2 and l.split()[1].isdigit() for l in stacks), "bad collapsed line"
print(f"prof ok: {len(prof)} prof.* metrics, {len(stacks)} collapsed stacks")
EOF

# The A/B driver (tools/ab.py): its unit tests over canned run.py
# results, then every line it appended to the history must parse and
# carry both levels for both sides.
echo "== tools/ab.py tests and results/bench_history.jsonl"
python3 tools/test_ab.py
python3 - <<'EOF'
import json
lines = open("results/bench_history.jsonl").read().splitlines()
assert lines, "results/bench_history.jsonl is empty"
for n, line in enumerate(lines, 1):
    e = json.loads(line)
    assert e["end_to_end"] and e["per_layer"], f"line {n}: a level is empty"
    for name, m in e["end_to_end"].items():
        for seed in e["seeds"]:
            assert {"parent", "change"} <= set(m[str(seed)]), f"line {n}: {name} seed {seed}"
    for name, m in e["per_layer"].items():
        assert {"parent", "change"} <= set(m), f"line {n}: layer {name}"
print(f"bench history ok: {len(lines)} driver lines")
EOF

echo "CI: all gates passed"
