"""One benchmark run in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --self-test

Prints one JSON object as its last line of output.  Started by run.py with
PYTHONPATH pointing at src/.  Set-up time is the CPU time from the first
line of main() to the first timed operation (import stable4 plus the first
round of seeded inputs), so interpreter start-up is not part of it; it is
reported in reference seconds (see metrics.py).
"""

import os
import sys
import time


def main() -> int:
    # One CPU for the worker, its command processes and the reference
    # kernel, so that the kernel sees the speed the operations see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.process_time()
    import stable4  # noqa: F401  -- part of the measured set-up
    import argparse
    import json

    import metrics
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    outdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(outdir, exist_ok=True)
    if args.self_test:
        import selftest
        return selftest.main(outdir)

    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    first_round = workload.ops(0)
    setup_cpu = time.process_time() - t0
    setup_s = metrics.HostSpeed(samples=5).seconds(setup_cpu)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu}))
        return 0

    result = metrics.run(workload, first_round, args, outdir)
    result.update(setup_s=setup_s, setup_cpu_s=setup_cpu)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
