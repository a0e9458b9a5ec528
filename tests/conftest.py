import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stable4.words import Word

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_word(rng: random.Random, n_gens: int, max_len: int) -> Word:
    letters = [
        (rng.randrange(n_gens), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(tuple(letters))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_python(*args, env=None, timeout=60, preexec_fn=None):
    """Run `python *args` with `PYTHONPATH` at this checkout's src, the
    parent's environment overlaid with `env`.  A child still running after
    `timeout` seconds is killed and the test fails with `TimeoutExpired`.
    Returns (exit code, stdout, stderr, wall seconds including start-up).
    Every test that starts a process starts it here."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn,
    )
    return result.returncode, result.stdout, result.stderr, time.perf_counter() - start
