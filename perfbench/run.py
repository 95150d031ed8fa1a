#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload figs --seed 1 --seconds 25 --trace 0

Run from the repository root. The script builds the workload's binary
from source (release, offline, with the committed lock file), checks with
`cargo tree` that the binary's dependency graph is the one the workload
must be timed in, runs it, and checks its result line against
BENCHMARK.json. With `--trace 0` the result holds every end-to-end
metric; with `--trace 1` every per-layer metric, where a layer the
workload does not call reads 0. The traced run also writes its spans to
`.perfbench-out/`.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which package (and so which dependency graph) runs each workload.
PACKAGES = {"figs": "plain", "fleet": "plain", "crash": "checked"}

# ppa-core features each graph must have (True) or must not have (False).
# `figs` and `fleet` are timed in the graph `repro` users run; `crash`
# in ppa-verify's, where `ppa-core/verify` is on.
GRAPH_RULES = {
    "plain": {"verify": False, "prof": False},
    "checked": {"verify": True, "prof": False},
}

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cargo(args, env):
    return subprocess.run(["cargo", *args], env=env, stdout=subprocess.PIPE, text=True)


def core_features(manifest, env):
    """The ppa-core features cargo resolves for `manifest`'s graph."""
    out = cargo(
        ["tree", "--offline", "--locked", "--manifest-path", str(manifest),
         "-e", "features", "-i", "ppa-core", "--prefix", "none"],
        env,
    )
    if out.returncode != 0:
        fail(f"cargo tree failed for {manifest}")
    return sorted(set(re.findall(r'^ppa-core feature "([^"]+)"', out.stdout, re.M)))


def check_result(line, spec, trace):
    """Parses the binary's result line and checks it against BENCHMARK.json.
    Per-layer metrics the workload did not measure are added as 0."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            raise ValueError(f"metric {name} ({m['unit']}) is not declared with that unit")
    missing = [n for n in declared if n not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing: {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    result["metrics"] = dict(sorted(metrics.items()))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PACKAGES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    package = PACKAGES[args.workload]
    manifest = HERE / package / "Cargo.toml"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    # Serial fan-out: the workloads make one call at a time, and fleet
    # sizes its worker pool itself.
    env["PPA_JOBS"] = "1"

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", str(manifest)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"building {manifest} failed")

    features = core_features(manifest, env)
    for feature, wanted in GRAPH_RULES[package].items():
        if (feature in features) != wanted:
            fail(f"refusing to time {args.workload}: ppa-core features {features} in the "
                 f"perfbench-{package} graph, where `{feature}` must be {'on' if wanted else 'off'}", 3)
    print(f"graph: workload {args.workload}, binary perfbench-{package}, "
          f"ppa-core features {features}")

    binary = Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / f"perfbench-{package}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / ".perfbench-out")]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}")
    try:
        result = check_result(lines[-1], spec, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad result from {args.workload}: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
