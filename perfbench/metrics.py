"""The measuring loop and the metrics it reports.

The load is a closed loop: one client, no threads, each operation issued
when the previous one returns.  The loop runs whole rounds until the timed
operations add up to --seconds and at least MIN_OPS operations ran, so that
at least ten latency samples lie beyond p90.  Checks, digests and input
generation for later rounds run between operations, outside the timing.

Every round has the same composition, so ops_per_s is the median over
rounds of each round's operations per timed second: a burst of load from
outside the process moves one round, not the figure.

Times are CPU seconds of the worker (and, for the cli workload, of the
command processes it waits for), not wall-clock seconds: the program is
single-threaded and does no I/O inside an operation, and on a shared host
the wall clock also counts the time other tenants hold the CPU.

CPU time still moves with the host's speed, which on the shared 2-vCPU
virtual machine this was written on swung by up to 2x within a minute.  So
every time is divided by the CPU time of a fixed reference kernel sampled
every 100 ms beside the operations, and reported in reference units: one
reference millisecond is the time the kernel takes (about 1 ms there on a
quiet host).  Over a minute of such swings the ratio of an operation's time
to the kernel's held within +-4% for an order-1344 closure and about +-13%
for a sigma = 128 realization.  The raw CPU figures are printed too.
Per-layer self times in the traced run are raw wall-clock times.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from time import perf_counter, process_time

import tracer as tracing
import workloads

DEFAULT_SEED = 0
MIN_OPS = 100
WALL_LIMIT_S = 120  # stop after the current round, whatever the CPU time
REFERENCE_EVERY_S = 0.1
REFERENCE_KERNEL_S = 0.001  # the unit: the kernel takes one reference ms
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Spans and timed wrappers: each reports .calls and .self_ms.
SPANS = [
    "f2.group_closure", "f2.orbits", "f2.orbit_of",
    "classify.classify", "classify.spin_state_orbits",
    "classify.stabilizer_of_w", "classify.decide_stable_equiv",
    "forms.ldlt_signature", "forms.is_hermitian", "forms.direct_sum",
    "forms.parity",
    "models.realize_form", "models.model_P",
    "groupring.mul", "groupring.conjugate", "groupring.in_image_one_plus_T",
    "words.fox_derivative", "words.reduce_word",
    "cli.main",
]
SELF_ONLY = ["forms.form_json", "models.han1_json", "bench.op"]
COUNTERS = ["f2.matmul", "f2.apply", "groupring.eq", "words.multiply", "words.Word.mul"]
COUNTS = [
    "f2.group_closure.elements", "f2.orbits.states",
    "forms.ldlt_signature.n_cubed", "forms.is_hermitian.entries",
    "forms.direct_sum.entries_built",
    "groupring.mul.term_pairs", "groupring.mul.terms_out",
    "words.Word.mul.letters_in",
]
# ROADMAP aim-1 baseline points, timed without tracing in the traced run of
# the workload that loads the layer (zero on the others).
ROADMAP = {
    "tables": ["roadmap.gl4_closure_ms", "roadmap.classify_z3_spin_ms",
               "roadmap.classify_nil2_almost_spin_ms"],
    "forms": ["roadmap.realize128_build_ms", "roadmap.realize128_signature_ms"],
    "cli": ["roadmap.import_stable4_ms", "cli.import_ms"],
}


def per_layer_catalog() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for name in SPANS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name in SELF_ONLY:
        out.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name in COUNTERS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name in COUNTS:
        out.append({"name": name, "unit": "count", "better": "lower"})
    out += [
        {"name": "classify.stabilizer.kept_ratio", "unit": "ratio", "better": "higher"},
        {"name": "groupring.mul.terms_out_per_pair", "unit": "ratio", "better": "lower"},
        {"name": "cli.stdout_bytes", "unit": "bytes", "better": "lower"},
        {"name": "trace.ops_per_s", "unit": "ops/s", "better": "higher"},
    ]
    for names in ROADMAP.values():
        out += [{"name": n, "unit": "ms", "better": "lower"} for n in names]
    return out


def expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


def reference_kernel() -> int:
    """Fixed pure-Python work: dict reads and writes and int arithmetic.

    It leaves nothing the cyclic GC tracks, so the heap the program builds
    does not change its cost.
    """
    table = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(5000):
        key = i & 63
        table[key] = table[key] + (i * 2654435761 & 0xFFFF)
        acc ^= table[key]
    return acc


class HostSpeed:
    """CPU time of the reference kernel, median of the last five samples."""

    def __init__(self, samples: int = 0) -> None:
        self.samples: deque = deque(maxlen=5)
        self.due = 0.0
        for _ in range(samples):
            self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now >= self.due:
            start = process_time()
            reference_kernel()
            self.samples.append(process_time() - start)
            self.due = now + REFERENCE_EVERY_S

    def seconds(self, cpu_seconds: float) -> float:
        """CPU seconds expressed in reference seconds."""
        return cpu_seconds * REFERENCE_KERNEL_S / statistics.median(self.samples)


def cpu_clock(children: bool):
    """CPU seconds of this process, plus those of its reaped children."""
    if not children:
        return process_time

    def clock():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return process_time() + usage.ru_utime + usage.ru_stime

    return clock


def measure(workload, first_round, seconds, tracer=None, digest=False,
            min_ops=MIN_OPS) -> dict:
    clock = cpu_clock(getattr(workload, "spawns", False))
    speed = HostSpeed(samples=3)
    wall_start = perf_counter()
    latencies: list[float] = []
    raw: list[float] = []
    failed = timed = cpu = 0
    reported = 0
    runner = lambda op: op.run()
    if tracer is not None:
        runner = tracer.span("bench.op", runner)
    ops, r, result, rates, raw_rates = first_round, 0, {}, [], []
    while True:
        round_start = (len(latencies), timed, cpu)
        sha = hashlib.sha256() if digest and r == 0 else None
        for op in ops:
            speed.sample()
            if tracer is not None:
                tracer.op_id = len(latencies)
                tracer.on = True
            out, ok = None, True
            start = clock()
            try:
                out = runner(op)
            except Exception:
                ok = False
                if reported < 3:
                    traceback.print_exc()
            elapsed = clock() - start
            if tracer is not None:
                tracer.on = False
            speed.sample()
            if ok:
                try:
                    ok = bool(op.check(out))
                except Exception:
                    ok = False
                    if reported < 3:
                        traceback.print_exc()
            if not ok:
                reported += 1
                if reported <= 3:
                    print(f"failed: {op.kind}", file=sys.stderr)
            if sha is not None:
                sha.update(op.canon(out) if ok else b"FAILED")
                sha.update(b"\n")
            raw.append(elapsed)
            cpu += elapsed
            latencies.append(speed.seconds(elapsed))
            timed += latencies[-1]
            failed += not ok
            out = None
        done = len(latencies) - round_start[0]
        rates.append(done / (timed - round_start[1]))
        raw_rates.append(done / (cpu - round_start[2]))
        if r == 0:
            result["round_ops"] = len(ops)
            result["round_failed"] = failed
            if sha is not None:
                result["digest"] = sha.hexdigest()
            if tracer is not None:
                result["snapshot"] = tracer.snapshot()
                result["stdout_bytes"] = getattr(workload, "stdout_bytes", 0)
                tracer.keep = False
        r += 1
        if cpu >= seconds and len(latencies) >= min_ops:
            break
        if perf_counter() - wall_start > WALL_LIMIT_S:
            print(f"stopping after {r} rounds: wall-clock limit", file=sys.stderr)
            break
        ops = workload.ops(r)
        gc.collect()  # start each round from the same heap state
    result.update(latencies=latencies, failed=failed, timed=cpu, rounds=r,
                  ops_per_s=statistics.median(rates), raw_latencies=raw,
                  raw_ops_per_s=statistics.median(raw_rates))
    return result


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = process_time()
        fn()
        times.append(process_time() - start)
    return statistics.median(times) * 1000


def _import_ms(module: str, reps: int = 5) -> float:
    code = ("import time; t = time.process_time(); import " + module +
            "; print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times) * 1000


def roadmap_probes(name: str) -> dict:
    """The ROADMAP aim-1 baseline points that belong to this workload."""
    cl = importlib.import_module("stable4.classify")
    f2 = importlib.import_module("stable4.f2")
    fo = importlib.import_module("stable4.forms")
    mo = importlib.import_module("stable4.models")
    wo = importlib.import_module("stable4.words")
    if name == "tables":
        gl4 = [f2.F2Mat(4, rows) for rows in workloads.GL4]
        z3, nil2 = cl.family_z3(), cl.family_nil(2)
        return {
            "roadmap.gl4_closure_ms": _median_ms(lambda: f2.group_closure(gl4), 1),
            "roadmap.classify_z3_spin_ms": _median_ms(
                lambda: cl.classify(z3, f2.F2Vec.zero(3), "smooth"), 21),
            "roadmap.classify_nil2_almost_spin_ms": _median_ms(
                lambda: cl.classify(nil2, f2.F2Vec.from_bits("100"), "smooth"), 21),
        }
    if name == "forms":
        z3 = wo.ZnFamily(3)
        build = lambda: mo.realize_form(z3, f2.F2Vec.zero(3), 128, fo.Parity.EVEN,
                                        f2.F2Vec.from_bits("110"))
        h = build()
        return {
            "roadmap.realize128_build_ms": _median_ms(build, 3),
            "roadmap.realize128_signature_ms": _median_ms(
                lambda: fo.augmentation_signature(h.form), 3),
        }
    if name == "cli":
        return {"roadmap.import_stable4_ms": _import_ms("stable4"),
                "cli.import_ms": _import_ms("stable4.cli")}
    return {}


def per_layer(result: dict, probes: dict) -> dict:
    snap = result["snapshot"]
    calls, self_s, count = snap["calls"], snap["self_s"], snap["count"]
    values = {}
    for name in SPANS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1000
    for name in SELF_ONLY:
        values[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1000
    for name in COUNTERS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTS:
        values[name] = count.get(name, 0)
    closure = count.get("classify.stabilizer.closure_elements", 0)
    values["classify.stabilizer.kept_ratio"] = (
        count.get("classify.stabilizer.kept", 0) / closure if closure else 0.0)
    pairs = count.get("groupring.mul.term_pairs", 0)
    values["groupring.mul.terms_out_per_pair"] = (
        count.get("groupring.mul.terms_out", 0) / pairs if pairs else 0.0)
    values["cli.stdout_bytes"] = result["stdout_bytes"]
    values["trace.ops_per_s"] = result["ops_per_s"]
    for names in ROADMAP.values():
        for name in names:
            values[name] = probes.get(name, 0.0)
    return values


def end_to_end(result: dict, name: str) -> tuple[dict, int, dict]:
    """The end-to-end metrics, the samples beyond p90, and raw CPU figures."""
    lat = result["latencies"]
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    raw = result["raw_latencies"]
    return {
        "ops_per_s": result["ops_per_s"],
        "latency_ms_p50": statistics.median(lat) * 1000,
        "latency_ms_p90": p90 * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_frac": (n - result["failed"]) / n,
    }, sum(x > p90 for x in lat), {
        "ops_per_s": result["raw_ops_per_s"],
        "latency_ms_p50": statistics.median(raw) * 1000,
        "latency_ms_p90": statistics.quantiles(raw, n=10)[8] * 1000,
    }


def run(workload, first_round, args, outdir) -> dict:
    name = args.workload
    if args.trace:
        probes = roadmap_probes(name)
        tracer = tracing.install()
        for missing in tracer.missing:
            print(f"warning: no binding {missing} to trace", file=sys.stderr)
        workload.inprocess = True  # cli: run commands where the wrappers are
        result = measure(workload, first_round, args.seconds, tracer)
        tracer.uninstall()
        tracer.write_spans(os.path.join(outdir, f"spans-{name}-{args.seed}.jsonl"))
        values = per_layer(result, probes)
        above = raw = None
    else:
        digest = args.seed == DEFAULT_SEED
        result = measure(workload, first_round, args.seconds, digest=digest)
        pinned = expected()["digests"].get(name)
        if digest and result["digest"] != pinned:
            print(f"digest {result['digest']} differs from the pinned {pinned}",
                  file=sys.stderr)
            result["failed"] += result["round_ops"] - result["round_failed"]
        values, above, raw = end_to_end(result, name)
    return {
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "rounds": result["rounds"],
        "timed_s": result["timed"],
        "above_p90": above,
        "raw_cpu": raw,
        "metrics": values,
    }
