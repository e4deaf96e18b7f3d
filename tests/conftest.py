from __future__ import annotations

import concurrent.futures
import os
import random
import sys
from pathlib import Path

import pytest

from gecaug import ErrorPattern, ParallelExample, PatternPool

SRC = Path(__file__).resolve().parent.parent / "src"

VOCAB = (
    "the", "The", "a", "cat", "cats", "dog", "walked", "walks",
    "to", "from", "school", "yesterday", "very", "happy", "was", "were",
    "t1", "t2", "t3", "t4",
)


@pytest.fixture()
def no_thread_pool(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make starting a thread pool fail the test."""

    def no_threads(*args, **kwargs):
        raise AssertionError("a local backend started a thread pool")

    # ``map_ordered`` imports the pool where it starts one, so it is
    # replaced at its source.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond, so an unlocked update between them shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def cli_env() -> dict[str, str]:
    """The parent environment with this checkout's ``src`` first on PYTHONPATH.

    A ``python -m gecaug`` child started with another working directory
    then imports the same package as the in-process tests, whether the
    caller's PYTHONPATH was relative or some other gecaug is installed.
    Nothing else is pinned: each child keeps its own hash seed.
    """

    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), inherited)))
    return env


def random_pair(rng: random.Random, max_len: int = 12) -> ParallelExample:
    """A fuzzed source/target pair over a vocabulary rich in near-misses."""

    n_src = rng.randint(1, max_len)
    source = [rng.choice(VOCAB) for _ in range(n_src)]
    target = list(source)
    for _ in range(rng.randint(0, 4)):
        op = rng.randrange(3)
        if op == 0 and target:
            target[rng.randrange(len(target))] = rng.choice(VOCAB)
        elif op == 1 and target:
            del target[rng.randrange(len(target))]
        else:
            target.insert(rng.randint(0, len(target)), rng.choice(VOCAB))
    if rng.random() < 0.3 and len(target) >= 2:
        i = rng.randrange(len(target) - 1)
        target[i], target[i + 1] = target[i + 1], target[i]
    if not target:
        target = [rng.choice(VOCAB)]
    return ParallelExample(tuple(source), tuple(target), id="fuzz")


def insertion_pool(size: int, n: int = 3, zipf: float = 1.0) -> PatternPool:
    """A pool of insertion-shaped patterns over disjoint alphabets.

    Each pattern carries its own one-token context on both sides, so a
    planted occurrence re-extracts to exactly the same key regardless of
    the surrounding sentence. Counts follow a Zipf profile so rank
    statistics are meaningful.
    """

    counts = {}
    for i in range(size):
        wrong = (f"tok{i}a", f"tok{i}b")
        correct = (f"tok{i}a", f"fix{i}", f"tok{i}b")
        weight = max(1, int(1000 / (i + 1) ** zipf))
        counts[ErrorPattern(wrong, correct, n)] = weight
    return PatternPool(counts, n=n)
