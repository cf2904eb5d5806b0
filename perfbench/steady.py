#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of every workload.

    python3 perfbench/steady.py

Run from the repository root. Every workload of BENCHMARK.json runs
for its run_seconds. Set A uses seeds 1..10 and set B seeds
101..110; the runs alternate between the sets (and which set goes
first) so that drift of the machine lands on both. For every workload
and end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
whether both spreads (setup_s exempt) and the two medians agree within
the metric's bound from BENCHMARK.json. It also checks that the share
of failed operations is identical in the two sets. Raw result lines are
appended to .bench_run/steady.jsonl. Exits 1 when anything disagrees.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10  # runs per set and workload


def run_once(config, workload, seed, seconds):
    command = config["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    os.makedirs(".bench_run", exist_ok=True)
    log = open(os.path.join(".bench_run", "steady.jsonl"), "a")

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
            seed = (1 if side == "A" else 101) + i
            for workload in workloads:
                result = run_once(config, workload, seed, seconds)
                results[workload][side].append(result)
                log.write(json.dumps({"workload": workload, "set": side,
                                      "seed": seed, "result": result}) + "\n")
                log.flush()
                print(f"run {i + 1}/{RUNS} set {side} {workload} "
                      f"seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'set':<3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}  verdict")
        for side in ("A", "B"):
            runs = results[workload][side]
            if not all(r["correct"] for r in runs):
                ok = False
                print(f"  set {side}: a run reported correct=false")
        shares = {side: sum(r["failed"] for r in results[workload][side]) /
                  sum(r["attempted"] for r in results[workload][side])
                  for side in ("A", "B")}
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"]
                          for r in results[workload][side]]
                stats[side] = summary(values)
            a, b = stats["A"][0], stats["B"][0]
            drift = abs(b - a) / a if a else float("inf")
            spreads_ok = name == "setup_s" or all(
                stats[s][3] <= bound for s in ("A", "B"))
            agree = drift <= bound and spreads_ok
            ok = ok and agree
            for side in ("A", "B"):
                med, q1, q3, spread = stats[side]
                verdict = ""
                if side == "B":
                    verdict = (f"{'agree' if agree else 'DISAGREE'} "
                               f"(medians {drift:.1%} apart, bound {bound:.0%})")
                print(f"  {name:<14} {side:<3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.1%}  {verdict}")
        same_share = shares["A"] == shares["B"]
        ok = ok and same_share
        print(f"  failed share: A {shares['A']:.6g}, B {shares['B']:.6g} "
              f"({'identical' if same_share else 'DIFFERENT'})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
