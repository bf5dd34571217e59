"""kurasteer benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. BLAS/OpenMP are pinned to one thread. The run
times setup_s (its own import of the package plus the median of SETUPS
problem builds), then makes whole rounds of the workload's operation until S
seconds have passed (at least two rounds), checks every output, and prints as
its last line {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
rounds alternate untraced and traced, and the metrics are the per-layer ones.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
MIN_ROUNDS = 2  # a slow first round must not leave the run with one sample
DEFAULT_SEEDS = {"steer-velocity": 0, "steer-interaction": 1, "gradcheck": 0}


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median_of(rounds: list[dict], key: str):
    values = [r[key] for r in rounds if key in r]
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's seed in README.md")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kurasteer" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: {ROOT} holds no kurasteer sources (src/kurasteer) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workdir = HERE / "_runs" / f"{args.workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](seed, workdir)
        workload.make_inputs()
        setup_s = import_s + statistics.median(timed(workload.setup) for _ in range(SETUPS))
        config_s = workload.traced_setup()
        rounds: list[dict] = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            rounds.append(workload.run_round(len(rounds), traced=bool(args.trace) and len(rounds) % 2 == 1))
        once = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = workload.outcome
    for problem in outcome.failures:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.trace:
        traced = [r for r in rounds if "layers" in r]
        untraced = [r for r in rounds if "layers" not in r]
        values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        values["config.problem_s"] = config_s
        values["trace.run_s"] = median_of(traced, "run_s")
        values["trace.overhead_s"] = values["trace.run_s"] - median_of(untraced, "run_s")
        names = spec["per_layer"]
    else:
        plain = [r for r in rounds if "layers" not in r]
        values = {key: median_of(plain, key) for key in ("run_s", "time_to_target_s", "solves_to_target", "final_J", "grad_digits")}
        values = {key: once.get(key, value) for key, value in values.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = spec["end_to_end"]

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
