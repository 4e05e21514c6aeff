#!/usr/bin/env python3
"""Build and run the layer-by-layer benchmark, or compare two results.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload ycsb --seed 1 --seconds 10 --trace 0

The benchmark is built from source with cargo (release, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset. Build output
goes to standard error; the benchmark's own output goes to standard
output, its last line being the result JSON. Every run also keeps a copy
of its result, with the host fingerprint and the simulated-statistics
digest, in perfbench/out/result-<workload>-seed<n>-trace<t>.json.

Compare two sets of results against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --compare BASE NEW

BASE and NEW are result copies or directories of them. Results are
grouped by workload and trace mode; each metric's median on the NEW side
is compared with the BASE side's, and an end-to-end metric that got worse
by more than its bound is marked WORSE. Digests that differ between the
sides are flagged seed by seed, since a change that only speeds up the
simulator must leave them identical.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def run(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    proc = subprocess.Popen([exe] + argv)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def load_results(path):
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.startswith("result-") and f.endswith(".json")]
    else:
        files = [path]
    out = []
    for f in files:
        with open(f) as fh:
            out.append(json.load(fh))
    return out


def group(results):
    """{(workload, traced): {"metrics": {name: [values]}, "digests": {seed: digest}, "hosts": set}}"""
    g = {}
    for r in results:
        key = (r["workload"], bool(r["trace"]))
        e = g.setdefault(key, {"metrics": {}, "digests": {}, "hosts": set()})
        e["digests"][r["seed"]] = r["digest"]
        e["hosts"].add(json.dumps(r["host"], sort_keys=True))
        for name, m in r["result"]["metrics"].items():
            e["metrics"].setdefault(name, []).append(m["value"])
    return g


def compare(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    base = group(load_results(base_path))
    new = group(load_results(new_path))
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        b, n = base[key], new[key]
        print(f"== {workload} ({'traced' if traced else 'untraced'}): "
              f"{len(next(iter(b['metrics'].values()), []))} base / "
              f"{len(next(iter(n['metrics'].values()), []))} new runs")
        if b["hosts"] != n["hosts"]:
            print("   note: the two sides ran on different hosts or builds")
        seeds = sorted(set(b["digests"]) & set(n["digests"]))
        differ = [s for s in seeds if b["digests"][s] != n["digests"][s]]
        if differ:
            print(f"   digest: DIFFERS for seeds {differ} of {len(seeds)} run on both sides")
        else:
            print(f"   digest: identical for all {len(seeds)} seeds run on both sides")
        print(f"   {'metric':44} {'base':>14} {'new':>14} {'delta':>9}  verdict")
        for name in b["metrics"]:
            if name not in n["metrics"]:
                continue
            bm = statistics.median(b["metrics"][name])
            nm = statistics.median(n["metrics"][name])
            if bm == 0 and nm == 0:
                continue  # a layer this workload does not call
            delta = (nm - bm) / bm if bm else 0.0
            if name in bounds:
                bound, direction = bounds[name]
                loss = -delta if direction == "higher" else delta
                verdict = f"WORSE (bound {bound:.0%})" if loss > bound else f"within {bound:.0%}"
                worse += loss > bound
            else:
                verdict = f"{better.get(name, '')} is better"
            print(f"   {name:44} {bm:14.6g} {nm:14.6g} {delta:+9.2%}  {verdict}")
    only = sorted(set(base) ^ set(new))
    for key in only:
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'}): only on one side")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare BASE NEW", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
