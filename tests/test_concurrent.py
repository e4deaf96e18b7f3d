from __future__ import annotations

import threading
import time

import pytest

from gecaug._concurrent import map_ordered


class Counting:
    """An iterator over 0, 1, ... that counts how many items were pulled."""

    def __init__(self, size: int):
        self.size = size
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if self.pulled == self.size:
            raise StopIteration
        self.pulled += 1
        return self.pulled - 1


class Failed(Exception):
    pass


def _pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("map_ordered")]


def test_map_ordered_preserves_order():
    def slow_first(i: int) -> str:
        if i == 0:
            time.sleep(0.05)
        return f"text-{i}"

    for max_in_flight in (1, 4):
        results = list(map_ordered(slow_first, range(6), max_in_flight))
        assert results == [f"text-{i}" for i in range(6)]
        assert list(map_ordered(slow_first, [], max_in_flight)) == []
    with pytest.raises(ValueError):
        list(map_ordered(slow_first, range(6), 0))


@pytest.mark.parametrize("max_in_flight", [1, 2, 3])
def test_map_ordered_bounds_look_ahead(max_in_flight: int):
    items = Counting(100)
    ahead = []
    for consumed, value in enumerate(map_ordered(lambda i: i, items, max_in_flight)):
        assert value == consumed
        ahead.append(items.pulled - consumed)
    assert items.pulled == 100
    assert max(ahead) <= 4 * max_in_flight


def test_map_ordered_raises_first_failure_in_input_order():
    items = Counting(100)
    called = []

    def fn(i: int) -> int:
        called.append(i)
        if i == 3:
            time.sleep(0.05)
            raise Failed(i)
        if i == 5:
            raise Failed(i)
        return i

    got = []
    results = map_ordered(fn, items, 2)
    with pytest.raises(Failed) as info:
        for value in results:
            got.append(value)
    assert info.value.args == (3,)
    assert got == [0, 1, 2]
    pulled = items.pulled
    assert pulled <= 3 + 4 * 2
    assert list(results) == []
    time.sleep(0.05)
    assert items.pulled == pulled
    assert set(called) <= set(range(pulled))
    assert _pool_threads() == []


def test_map_ordered_close_leaves_no_worker_running():
    called = []

    def slow(i: int) -> int:
        called.append(i)
        time.sleep(0.02)
        return i

    results = map_ordered(slow, Counting(1000), 4)
    assert next(results) == 0
    results.close()
    assert _pool_threads() == []
    count = len(called)
    time.sleep(0.05)
    assert len(called) == count <= 1 + 4 * 4
