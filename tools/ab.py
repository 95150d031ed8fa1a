#!/usr/bin/env python3
"""A/B-compares two commits on the perfbench workloads.

    python3 tools/ab.py PARENT CHANGE [WORKLOAD...]

Each commit is checked out as a detached git worktree under the system
temp directory, keyed by its full SHA and reused across runs, so each
side's `perfbench/run.py` builds into that worktree's `.bench_build`.
For each workload (default: all three) the driver alternates run.py runs
of the two sides, flipping which goes first each pair: PAIRS pairs at
SEED, HELD_OUT_PAIRS at HELD_OUT_SEED, then TRACE_PAIRS `--trace 1`
pairs for the per-layer metrics. It prints each end-to-end metric's
medians, quartiles, wins and verdict, the failed share of operations
and each layer's medians, and appends one JSON line per workload to
results/bench_history.jsonl.

Verdicts, per seed, from BENCHMARK.json's `better` and `bound`:
  worse       the change's median is worse than the parent's by more than
              `bound`, however wide either side's runs spread
  unresolved  either side's IQR/median exceeds `bound`, unless every change
              run beats every parent run
  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR
  same        anything else
A metric's verdict is `worse` or `unresolved` if any seed's is, and
`gain` only if every seed's is. A layer is flagged `worse` or `better`
when its runs separate and its median moves by more than LAYER_MOVE.

Exits 1 if any metric is `worse` or the change's failed share rose,
2 on a usage error or when the commits' benchmarks differ.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "results" / "bench_history.jsonl"
WORKLOADS = ("figs", "crash", "fleet")
FROZEN = ("BENCHMARK.json", "perfbench")
SEED, PAIRS = 1, 10
HELD_OUT_SEED, HELD_OUT_PAIRS = 4242, 5
TRACE_PAIRS = 3
GAIN_WINS = 0.9
LAYER_MOVE = 0.25


def quartiles(xs):
    """(q1, median, q3) of `xs`, interpolating linearly between ranks."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def side(q):
    return {"median": q[1], "q1": q[0], "q3": q[2]}


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def rel(x, base):
    """`x` relative to |base|; a nonzero `x` over a zero base is infinite."""
    if base:
        return x / abs(base)
    return 0.0 if x == 0 else math.copysign(math.inf, x)


def compare(parent, change, better, bound):
    """One end-to-end metric's runs, pair by pair, at one seed."""
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    gap = (cq[1] - pq[1]) * (1 if better == "higher" else -1)
    separated = all(beats(c, p, better) for c in change for p in parent)
    spread = max(rel(pq[2] - pq[0], pq[1]), rel(cq[2] - cq[0], cq[1]))
    if rel(gap, pq[1]) < -bound:
        verdict = "worse"
    elif spread > bound and not separated:
        verdict = "unresolved"
    elif wins >= GAIN_WINS * len(parent) and gap > pq[2] - pq[0]:
        verdict = "gain"
    else:
        verdict = "same"
    return {"parent": side(pq), "change": side(cq), "wins": wins, "pairs": len(parent),
            "verdict": verdict}


def overall(verdicts):
    for v in ("worse", "unresolved"):
        if v in verdicts:
            return v
    return "gain" if all(v == "gain" for v in verdicts) else "same"


def layer(parent, change, better):
    """One per-layer metric's traced runs: both sides and a flag."""
    pq, cq = quartiles(parent), quartiles(change)
    flag = ""
    if abs(rel(cq[1] - pq[1], pq[1])) > LAYER_MOVE:
        if all(beats(c, p, better) for c in change for p in parent):
            flag = "better"
        elif all(beats(p, c, better) for c in change for p in parent):
            flag = "worse"
    return {"parent": side(pq), "change": side(cq), "flag": flag}


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report(shas, workload, spec, groups, traced):
    """The history entry for one workload. `groups` maps each seed to its
    (parent, change) run.py results; `traced` is the `--trace 1` pair."""
    def values(results, name):
        return [r["metrics"][name]["value"] for r in results]

    end_to_end = {}
    for m in spec["end_to_end"]:
        seeds = {str(seed): compare(values(p, m["name"]), values(c, m["name"]), m["better"],
                                    m["bound"])
                 for seed, (p, c) in groups.items()}
        end_to_end[m["name"]] = {"verdict": overall([s["verdict"] for s in seeds.values()]),
                                 **seeds}
    per_layer = {m["name"]: layer(values(traced[0], m["name"]), values(traced[1], m["name"]),
                                  m["better"])
                 for m in spec["per_layer"]}
    runs = [[r for g in (*groups.values(), traced) for r in g[i]] for i in (0, 1)]
    return {
        "parent": shas[0],
        "change": shas[1],
        "workload": workload,
        "seeds": list(groups),
        "pairs": {**{str(seed): len(p) for seed, (p, _) in groups.items()},
                  "trace": len(traced[0])},
        "run_seconds": spec["run_seconds"],
        "failed_share": {"parent": failed_share(runs[0]), "change": failed_share(runs[1])},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def failing(entry):
    """Whether the entry fails the change: a `worse` metric or a rise in
    the failed share of operations."""
    share = entry["failed_share"]
    return (share["change"] > share["parent"]
            or any(m["verdict"] == "worse" for m in entry["end_to_end"].values()))


def render(entry):
    g = "{:.6g}".format
    out = [f"ab: {entry['workload']}  parent {entry['parent'][:12]}  change "
           f"{entry['change'][:12]}  {entry['run_seconds']} s runs, pairs {entry['pairs']}"]
    for name, m in entry["end_to_end"].items():
        out.append(f"  {name:<20} {m['verdict']}")
        for seed in entry["seeds"]:
            s = m[str(seed)]
            p, c = s["parent"], s["change"]
            out.append(f"    seed {seed:<5} parent {g(p['median'])} [{g(p['q1'])}, {g(p['q3'])}]"
                       f"  change {g(c['median'])} [{g(c['q1'])}, {g(c['q3'])}]"
                       f"  wins {s['wins']}/{s['pairs']}  {s['verdict']}")
    share = entry["failed_share"]
    out.append(f"  failed/attempted  parent {g(share['parent'])}  change {g(share['change'])}")
    out.append("  layers (--trace 1, median parent -> change):")
    for name, m in entry["per_layer"].items():
        out.append(f"    {name:<40} {g(m['parent']['median'])} -> {g(m['change']['median'])}"
                   f"  {m['flag']}".rstrip())
    return "\n".join(out)


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return out.returncode, out.stdout.strip()


def worktree(sha):
    tree = Path(tempfile.gettempdir()) / "ppa-ab" / sha
    if not (tree / ".git").exists():
        git("worktree", "prune")
        if git("worktree", "add", "--detach", str(tree), sha)[0]:
            sys.exit(f"ab: cannot check {sha} out at {tree}")
    return tree


def run(tree, workload, seed, trace, seconds):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"ab: `{' '.join(cmd)}` in {tree} exited with {out.returncode}")
    return json.loads(lines[-1])


def pairs(trees, workload, seed, trace, n, seconds):
    """`n` alternating pairs; returns the (parent, change) results."""
    results = ([], [])
    for i in range(n):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            print(f"ab: {workload} seed {seed} trace {trace} pair {i + 1}/{n} "
                  f"{('parent', 'change')[s]}", file=sys.stderr)
            results[s].append(run(trees[s], workload, seed, trace, seconds))
    return results


def main(argv):
    if len(argv) < 2 or any(a.startswith("-") or (i >= 2 and a not in WORKLOADS)
                            for i, a in enumerate(argv)):
        print(__doc__, file=sys.stderr)
        return 2
    shas = []
    for rev in argv[:2]:
        code, sha = git("rev-parse", "--verify", "--quiet", rev + "^{commit}")
        if code:
            print(f"ab: {rev} is not a commit", file=sys.stderr)
            return 2
        shas.append(sha)
    if git("diff", "--quiet", *shas, "--", *FROZEN)[0]:
        print(f"ab: refusing to compare: {', '.join(FROZEN)} differ between the commits",
              file=sys.stderr)
        return 2
    trees = [worktree(sha) for sha in shas]
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    status = 0
    for workload in argv[2:] or WORKLOADS:
        groups = {seed: pairs(trees, workload, seed, 0, n, seconds)
                  for seed, n in ((SEED, PAIRS), (HELD_OUT_SEED, HELD_OUT_PAIRS))}
        traced = pairs(trees, workload, SEED, 1, TRACE_PAIRS, seconds)
        entry = report(shas, workload, spec, groups, traced)
        print(render(entry), flush=True)
        with HISTORY.open("a") as f:
            f.write(json.dumps(entry) + "\n")
        status |= failing(entry)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
