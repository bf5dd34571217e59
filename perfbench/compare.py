"""Two sets of benchmark runs of the same checkout, and whether they agree.

    python3 perfbench/compare.py

Each set runs every workload of BENCHMARK.json once per seed 0..9 (the same
seeds in both sets), one run at a time, with --trace 0 and BENCHMARK.json's
run_seconds. For each end-to-end metric and workload it prints each set's
median and spread (distance between the first and third quartile as a share
of the median), and a verdict: both spreads within the metric's bound, except
for setup_s, and the two medians within the bound of each other. setup_s
rests on one import per run, and a single preemption moves it by a quarter
(spreads of 0.08-0.34 over ten runs), so only its median is held to the
bound. The counts and costs (EXACT_METRICS) must be identical between the
sets seed by seed, and every run must be correct with the same failed share
in both sets. All runs are written to perfbench/_runs/compare-<time>.json.
Exits 0 when every verdict is ok.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(10)
EXACT_METRICS = ("solves_to_target", "final_J", "grad_digits")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets: list[dict] = []
    for k in range(SETS):
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in SEEDS:
                res = run_once(w, seed, spec["run_seconds"])
                runs[w].append(res)
                print(f"set {k + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
        sets.append(runs)
    out = HERE / "_runs" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))

    first, second = sets
    ok = True
    print(f"{'workload':18} {'metric':17} {'median1':>12} {'spread1':>8} {'median2':>12} {'spread2':>8} "
          f"{'moved':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in runs[w]] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            moved = (medians[1] - medians[0]) / medians[0]
            good = abs(moved) <= bound and (name == "setup_s" or all(s <= bound for s in spreads))
            if name in EXACT_METRICS:
                good = good and values[0] == values[1]
            ok = ok and good
            print(f"{w:18} {name:17} {medians[0]:12.6g} {spreads[0]:8.4f} {medians[1]:12.6g} "
                  f"{spreads[1]:8.4f} {moved:+7.3f} {bound:6.2f}  {'ok' if good else 'OUT OF BOUND'}")
        shares = [(sum(r["failed"] for r in runs[w]), sum(r["attempted"] for r in runs[w])) for runs in sets]
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(r["correct"] for r in first[w] + second[w])
        print(f"{w:18} failed/attempted per set: {shares}  correct: {correct}{'' if same else '  DIFFER'}")
        ok = ok and same and correct
    print(f"results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
