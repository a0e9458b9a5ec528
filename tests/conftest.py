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


def run_python(*args, env=None, timeout=60, preexec_fn=None, close_stdout=False):
    """Run `python *args` with `PYTHONPATH` at this checkout's src, the
    parent's environment overlaid with `env`.  A child still running after
    `timeout` seconds is killed and the test fails with `TimeoutExpired`.
    With close_stdout, the read end of the child's stdout is closed at
    once, before the child can write, and stdout reads "".
    Returns (exit code, stdout, stderr, wall seconds including start-up).
    Every test that starts a process starts it here."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=preexec_fn,
    ) as child:
        if close_stdout:
            child.stdout.close()
            child.stdout = None
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    return child.returncode, out or "", err, time.perf_counter() - start
