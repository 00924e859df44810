#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the per-run
values, the distance between their first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median, and that
share against a third of the metric's bound in BENCHMARK.json.

    python3 wallbench/tools/spread.py --workloads halo-tcp --seeds 5
    python3 wallbench/tools/spread.py --seeds 10 --trace 1

Run from the root of the repository. Sets CARGO_TARGET_DIR to
.bench_build unless it is already set.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    a = ap.parse_args()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for w in a.workloads.split(","):
        values, walls, failed, excused = {}, [], 0, 0
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            t = time.time()
            p = subprocess.run(cmd, env=env, capture_output=True, text=True)
            walls.append(time.time() - t)
            if p.returncode != 0:
                sys.stderr.write(p.stderr[-2000:])
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                sys.stderr.write(p.stderr[-3000:])
            want = bench["per_layer" if a.trace == "1" else "end_to_end"]
            want = {m["name"]: m["unit"] for m in want}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want:
                sys.exit(f"{w} seed {seed}: printed metrics differ from BENCHMARK.json")
            failed += res["failed"]
            m = re.search(r"(\d+) undetected SDCs excused", p.stderr)
            excused += int(m.group(1)) if m else 0
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {a.seeds} runs, {failed} failed jobs, {excused} undetected SDCs excused, "
              f"wall {min(walls):.0f}-{max(walls):.0f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            spread = float("nan")
            if len(vs) > 1 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and len(vs) > 1:
                flag = "ok" if spread < bound / 3 else "WIDE"
                ok &= flag == "ok"
            print(f"  {name:<32} median {med:>12.6g}  spread {spread:7.3f}  "
                  f"bound {bound if bound is not None else '-':>5}  {flag}")
            if a.values:
                print("    " + " ".join(f"{v:.5g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
