#!/usr/bin/env python3
"""Steadiness tooling for the end-to-end benchmark.

Run each workload repeatedly with distinct seeds and summarise every metric
(median, quartiles, and the quartile spread as a share of the median, set
against the metric's bound in BENCHMARK.json):

    python3 perfbench/steady.py run --runs 10 --out .bench_out/set-a.json
    python3 perfbench/steady.py run --workloads wire-serve --runs 5 \
        --first-seed 100 --out .bench_out/probe.json

Compare two saved sets (e.g. two sets of the same code, or parent and
change) against the bounds:

    python3 perfbench/steady.py compare .bench_out/set-a.json \
        .bench_out/set-b.json

A set passes when every run is correct, every run has the same failed
share, and every metric's spread is within its bound (setup_s is exempt:
it is one cold set-up per run); spreads above a third of the bound,
the steadiness target, are marked but do not fail the set. A compare
passes when no second median is worse than the first by more than the
bound and the failed share is the same. Run from the repo root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(spec, result_set):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, runs in result_set["runs"].items():
        fails = {(r["failed"], r["attempted"]) for r in runs}
        shares = sorted({f / a for f, a in fails})
        correct = all(r["correct"] for r in runs)
        print("== %s: %d runs, all correct: %s, failed shares: %s" %
              (workload, len(runs), correct, shares))
        ok &= correct and len(shares) == 1
        print("  %-26s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "  <-- FAIL: spread above bound"
                    ok = False
                elif spread > bound / 3:
                    flag = "  <-- above the bound/3 target"
            print("  %-26s %14.6g %14.6g %14.6g %7.2f%% %6s%s" %
                  (name, q1, med, q3, 100 * spread,
                   "-" if bound is None else "%.2f" % bound, flag))
    return ok


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    result = {"run_seconds": spec["run_seconds"], "runs": {}}
    for w in workloads:
        result["runs"][w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(spec, w, seed)
            r["seed"] = seed
            result["runs"][w].append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0 if summarise(spec, result) else 1


def cmd_summary(args):
    with open(args.set) as f:
        return 0 if summarise(load_spec(), json.load(f)) else 1


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for m in spec["end_to_end"]:
        for w in a["runs"]:
            if w not in b["runs"]:
                continue
            va = [r["metrics"][m["name"]]["value"] for r in a["runs"][w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b["runs"][w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print("%-14s %-26s %14.6g -> %14.6g  %+7.2f%%  bound %.2f  %s" %
                  (w, m["name"], ma, mb, 100 * change, m["bound"], verdict))
    for w in a["runs"]:
        if w not in b["runs"]:
            continue
        sa = {r["failed"] / r["attempted"] for r in a["runs"][w]}
        sb = {r["failed"] / r["attempted"] for r in b["runs"][w]}
        same = sa == sb and len(sa) == 1
        ok &= same
        print("%-14s failed share %s vs %s  %s" %
              (w, sorted(sa), sorted(sb), "ok" if same else "DIFFERS"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="Repeat benchmark runs and check their spread.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads repeatedly and summarise")
    r.add_argument("--workloads", default="",
                   help="comma-separated subset (default: all)")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out", default="")
    r.set_defaults(fn=cmd_run)
    s = sub.add_parser("summary", help="summarise a saved set")
    s.add_argument("set")
    s.set_defaults(fn=cmd_summary)
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(fn=cmd_compare)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
