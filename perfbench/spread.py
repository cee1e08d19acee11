"""Steadiness check: run every workload on several seeds, round-robin.

    python3 perfbench/spread.py --seeds 1-10 [--sets 2] [--workloads a,b]

Workloads are interleaved within a set (seed 1 of every workload, then
seed 2, ...) so a slow spell of the host hits all of them.  For each
end-to-end metric it prints the median over seeds and the quartile
spread ``(Q3 - Q1) / median`` (``statistics.quantiles(n=4)``), compared
with the bound in ``BENCHMARK.json``; with two sets, also how much worse
the second set's median is than the first's.  Raw results are appended to
``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)

    # results[set][workload][metric] -> values in seed order
    results = []
    ok = True
    for set_no in range(args.sets):
        per_set = {name: {m["name"]: [] for m in metrics} for name in names}
        for seed in seeds:
            for name in names:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                took = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    ok = False
                    continue
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                with log.open("a") as fh:
                    fh.write(json.dumps({"set": set_no, "workload": name, "seed": seed,
                                         "took_s": took, **out}) + "\n")
                if not out["correct"] or out["failed"]:
                    print(f"{name} seed {seed}: correct={out['correct']} "
                          f"failed={out['failed']}\n{proc.stderr}")
                    ok = False
                for m in metrics:
                    per_set[name][m["name"]].append(out["metrics"][m["name"]]["value"])
                print(f"set {set_no} {name} seed {seed}: {took:.1f} s", flush=True)
        results.append(per_set)

    for name in names:
        print(f"\n{name}")
        for m in metrics:
            key = m["name"]
            bound = m["bound"]
            cols = []
            for per_set in results:
                values = per_set[name][key]
                if len(values) < 2:
                    continue
                s = spread(values)
                if key != "setup_s" and s > bound:
                    ok = False
                cols.append(f"median {statistics.median(values):.6g} spread {s:.3f}")
            line = f"  {key:34s} " + " | ".join(cols) + f"  bound {bound}"
            if len(results) == 2 and all(len(r[name][key]) >= 2 for r in results):
                w = worse_by(statistics.median(results[0][name][key]),
                             statistics.median(results[1][name][key]), m["better"])
                line += f"  set 2 worse by {w:+.3f}"
                if w > bound:
                    ok = False
            print(line)
    print("\nsteady" if ok else "\nNOT steady (or a run failed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
