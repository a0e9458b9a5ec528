"""stable4 benchmark.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each run starts a fresh worker process for
the measured loop, and SETUP_PROBES more that only set up, so that setup_s
is the median of several set-ups.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1.  The lines
before it give the same figures for a reader, with sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170


def _worker(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "stable4", "__init__.py")):
        print(f"error: no stable4 package under {SRC}", file=sys.stderr)
        return 2
    # Build step: byte-compile once, so no measured import pays for it.
    if not compileall.compile_dir(os.path.join(SRC, "stable4"), quiet=1):
        print("error: stable4 does not compile", file=sys.stderr)
        return 2

    if args.self_test:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, WORKER, "--self-test"], cwd=ROOT,
                              env=env, timeout=900).returncode
    if args.workload is None:
        parser.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES - 1
    runs = [_worker(common + ["--setup-only"], 60) for _ in range(probes)]
    result = _worker(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], WORKER_TIMEOUT_S)
    runs.append(result)
    setups = [run["setup_s"] for run in runs]

    units = _units(args.trace)
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    n = result["attempted"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {n} operations in "
          f"{result['rounds']} rounds, {result['timed_s']:.2f} s timed, "
          f"{result['failed']} failed")
    if not args.trace:
        raw = result["raw_cpu"]
        print(f"  latency samples: {n}, beyond p90: {result['above_p90']}; "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"  raw CPU, before conversion to reference units: "
              f"ops_per_s {raw['ops_per_s']:.4g}, p50 {raw['latency_ms_p50']:.4g} ms, "
              f"p90 {raw['latency_ms_p90']:.4g} ms, setup "
              f"{statistics.median(run['setup_cpu_s'] for run in runs):.4g} s")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": n,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
