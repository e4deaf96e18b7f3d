"""Relabel-based denoising of synthetic corpora.

A generated target can contain its own mistakes. Relabeling feeds each
synthetic source through a corrector and keeps (source, corrector output)
as the training pair, so label quality no longer depends on the
generator. Agreement metadata rides on each pair: whether the corrector
reproduced the generated target, echoed the source, or produced a third
string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import closing
from itertools import zip_longest
from typing import Iterable, Iterator

from ._concurrent import map_ordered
from ._http import JsonHttpClient
from .align import align_tokens, merge_edits
from .corpus import ParallelExample, _pair, check_tokens, splice
from .synthesis import SyntheticSample


class CorrectorBackend(ABC):
    """A sentence corrector. Raises TransportError on remote failure.

    ``waits`` says whether a call can wait on something outside the
    process, such as a service. ``relabel`` runs the calls of a corrector
    that never waits inline, whatever its ``max_in_flight``; a subclass
    that sets nothing keeps its threads.
    """

    name: str = "abstract"
    waits: bool = True

    @abstractmethod
    def correct_text(self, text: str, request_id: str = "0") -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the corrector holds open; nothing by default."""


class IdentityCorrector(CorrectorBackend):
    """Returns the input unchanged. Baseline and determinism fixture."""

    name = "identity"
    waits = False

    def correct_text(self, text: str, request_id: str = "0") -> str:
        return text


class OracleCorrector(CorrectorBackend):
    """Inverts planting using recorded spans.

    Built from the synthetic samples themselves: each (sample id, source)
    maps back to the sentence obtained by restoring every planted pattern's
    correct side at its recorded span; two samples can share a source but
    not a target. Unknown inputs pass through unchanged. Used to verify the
    plant/unplant round trip.
    """

    name = "oracle"
    waits = False

    def __init__(self, samples: Iterable[SyntheticSample]):
        self._table: dict[tuple[str, str], str] = {}
        for s in samples:
            planted = sorted(s.planted, key=lambda m: m[1])
            out, _ = splice(s.source, [(a, b, p.correct) for p, (a, b) in planted])
            self._table[s.id, " ".join(s.source)] = " ".join(out)

    def correct_text(self, text: str, request_id: str = "0") -> str:
        return self._table.get((request_id, text), text)


class HttpCorrector(CorrectorBackend):
    """Client for a correction service.

    Wire shape: POST {"id", "text"} as JSON, response {"text": "..."}.
    Endpoint and bearer token default to GECAUG_CORRECTOR_URL /
    GECAUG_CORRECTOR_TOKEN. Retry policy matches the generator client.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str | None = None,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
    ):
        self._client = JsonHttpClient.from_env(
            "corrector",
            endpoint,
            auth_token,
            timeout=timeout,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
        )

    def correct_text(self, text: str, request_id: str = "0") -> str:
        return self._client.post_text({"id": request_id, "text": text})

    def close(self) -> None:
        """Close the client's idle connections."""
        self._client.close()


def relabel(
    samples: Iterable[SyntheticSample], corrector: CorrectorBackend, max_in_flight: int = 8
) -> Iterator[ParallelExample]:
    """Yield (source, corrector(source)) pairs in input order.

    Up to ``max_in_flight`` corrector calls run at once (see
    ``map_ordered``) when the corrector waits; one that never waits runs
    inline. Closing the generator early stops the calls. An empty
    corrector reply falls back to the uncorrected source. Meta flags on
    each pair: matches_target (corrector agreed with the generated
    sentence) and matches_source (corrector left the input unchanged).
    """

    if max_in_flight < 1:
        raise ValueError("max_in_flight must be at least 1")

    def correct(s: SyntheticSample) -> tuple[SyntheticSample, str]:
        return s, corrector.correct_text(" ".join(s.source), s.id)

    in_flight = max_in_flight if corrector.waits else 1
    with closing(map_ordered(correct, samples, in_flight)) as corrected:
        for s, text in corrected:
            tokens = tuple(text.split())
            if not tokens:
                tokens = s.source
            meta = {
                "matches_target": tokens == s.target,
                "matches_source": tokens == s.source,
            }
            # Only the source needs ``ParallelExample``'s check: split tokens pass it.
            source = tuple(s.source)
            check_tokens(source, "source")
            yield _pair(source, tuple(tokens), s.id, meta)


def relabel_diff_stats(
    before: Iterable[ParallelExample], after: Iterable[ParallelExample]
) -> dict:
    """Compare a corpus before and after relabeling, aligned by id.

    token_change_rate is the summed edit mass between old and new targets
    (per edit, the larger of source-span length and replacement length)
    divided by the total token count of the old targets.
    """
    pairs = 0
    targets_changed = 0
    changed_mass = 0
    target_tokens = 0
    errorful_before = 0
    errorful_after = 0
    for b, a in zip_longest(before, after):
        if b is None or a is None:
            raise ValueError("corpora differ in length")
        if b.id != a.id:
            raise ValueError(f"id mismatch: {b.id!r} vs {a.id!r}")
        if b.source != a.source:
            raise ValueError(f"source changed for id {b.id!r}; relabel preserves sources")
        pairs += 1
        target_tokens += len(b.target)
        errorful_before += b.source != b.target
        errorful_after += a.source != a.target
        if b.target != a.target:
            targets_changed += 1
            edits = merge_edits(align_tokens(b.target, a.target), b.target, a.target)
            changed_mass += sum(
                max(e.src_span[1] - e.src_span[0], len(e.replacement)) for e in edits
            )
    return {
        "pairs": pairs,
        "targets_changed": targets_changed,
        "target_change_fraction": targets_changed / pairs if pairs else 0.0,
        "token_change_rate": changed_mass / target_tokens if target_tokens else 0.0,
        "errorful_before": errorful_before / pairs if pairs else 0.0,
        "errorful_after": errorful_after / pairs if pairs else 0.0,
    }
