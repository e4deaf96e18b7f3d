"""One bounded, order-preserving map: the package's only thread pool."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import Future

T = TypeVar("T")
R = TypeVar("R")

# Items pulled but not yet yielded, per thread. At 1x one slow call stalls
# the threads behind it; 4x rides out a latency tail at bounded memory.
LOOKAHEAD = 4


def map_ordered(fn: Callable[[T], R], items: Iterable[T], max_in_flight: int) -> Iterator[R]:
    """Yield ``fn(item)`` for each lazily pulled item, in input order.

    ``max_in_flight == 1`` runs every call inline. Otherwise that many
    threads run calls and at most ``LOOKAHEAD * max_in_flight`` items are
    pulled but not yet yielded. On a failure or an early close, calls not
    yet started are cancelled and running ones are waited for, so none
    outlives the generator; the first failure in input order is raised.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be at least 1")
    if max_in_flight == 1:
        yield from map(fn, items)
        return
    # Imported here: only this branch starts threads, and the module (with
    # the logging it loads) would otherwise cost every process its import.
    from concurrent.futures import ThreadPoolExecutor

    pending: deque[Future[R]] = deque()
    executor = ThreadPoolExecutor(max_in_flight, thread_name_prefix="map_ordered")
    try:
        for item in items:
            pending.append(executor.submit(fn, item))
            if len(pending) == LOOKAHEAD * max_in_flight:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
