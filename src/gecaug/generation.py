"""Generation inputs and pluggable generator backends.

A generation input strings sampled pattern correct-sides together with
``[M]`` placeholders; the generator's job is to replace each placeholder
with free text while keeping the pattern tokens verbatim. Two backends
ship: a deterministic offline stub for tests and pipelines without a
model, and an HTTP client for a real generation service.

The same module builds the two prompt shapes that drive real models: the
masked fine-tuning example (masked sentence <sep> full sentence, with the
span the loss should cover) and the frozen few-shot prompt.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import Sequence

from ._http import JsonHttpClient, TransportError
from .corpus import Record, check_tokens, splice
from .seeding import stable_seed

__all__ = [
    "MASK",
    "SEP",
    "GenerationRequest",
    "GenerationResult",
    "FinetuneExample",
    "GeneratorBackend",
    "StubGenerator",
    "HttpGenerator",
    "TransportError",
    "assemble_input",
    "build_finetune_example",
    "build_fewshot_prompt",
    "generate",
]

MASK = "[M]"
SEP = "<sep>"

STATUS_OK = "ok"
STATUS_REFUSED = "refused"
STATUS_TRANSPORT_ERROR = "transport_error"


class GenerationRequest(Record):
    """One templated request: the patterns to keep verbatim and the template."""

    _fields = ("patterns", "template", "id")

    def __init__(self, patterns: tuple[tuple[str, ...], ...], template: str, id: str):
        self.__dict__.update(patterns=patterns, template=template, id=id)


class GenerationResult(Record):
    """Backend outcome. ``text`` is non-empty exactly when status is ok."""

    _fields = ("request_id", "text", "status", "detail")

    def __init__(self, request_id: str, text: str, status: str, detail: str = ""):
        self.__dict__.update(request_id=request_id, text=text, status=status, detail=detail)


class FinetuneExample(Record):
    """Masked-infilling training example.

    ``input`` is the masked sentence, ``<sep>``, then the full sentence.
    ``target_span`` is the token index range of the full sentence within
    the input, the span a trainer should compute loss over.
    ``masked_spans`` records which sentence spans were masked.
    """

    _fields = ("input", "target_span", "masked_spans")

    def __init__(
        self, input: str, target_span: tuple[int, int],
        masked_spans: tuple[tuple[int, int], ...],
    ):
        self.__dict__.update(input=input, target_span=target_span, masked_spans=masked_spans)


def assemble_input(
    patterns: Sequence[Sequence[str]], rng: Random, request_id: str = "0"
) -> GenerationRequest:
    """Join 1 or 2 pattern token sequences into a [M]-templated request.

    Consecutive patterns are separated by one placeholder; a leading and a
    trailing placeholder are each added with probability 0.5 (RNG order:
    leading flank, then trailing flank).
    """
    pats = [tuple(p) for p in patterns]
    if not 1 <= len(pats) <= 2:
        raise ValueError(f"expected 1 or 2 patterns, got {len(pats)}")
    for p in pats:
        check_tokens(p, "pattern")
    template = f" {MASK} ".join(" ".join(p) for p in pats)
    if rng.random() < 0.5:
        template = f"{MASK} {template}"
    if rng.random() < 0.5:
        template = f"{template} {MASK}"
    return GenerationRequest(tuple(pats), template, request_id)


def build_finetune_example(tokens: Sequence[str], rng: Random) -> FinetuneExample:
    """Mask 1-2 short spans of a sentence and pair it with the original.

    Segment count is uniform on {1, 2}, lengths uniform on
    [1, min(4, len // 2)], positions uniform over placements that keep the
    first and last token unmasked and at least one token between segments.
    An infeasible 2-segment draw falls back to a single segment. RNG order:
    count, length(s), position(s). Sentences shorter than 4 tokens are
    rejected.
    """
    toks = list(tokens)
    n = len(toks)
    if n < 4:
        raise ValueError(f"sentence too short to mask ({n} tokens)")
    count = rng.randint(1, 2)
    max_len = min(4, n // 2)
    len1 = rng.randint(1, max_len)
    spans: list[tuple[int, int]]
    if count == 2 and n - 3 - len1 >= 1:
        len2 = rng.randint(1, min(max_len, n - 3 - len1))
        s1 = rng.randint(1, n - 2 - len1 - len2)
        s2 = rng.randint(s1 + len1 + 1, n - 1 - len2)
        spans = [(s1, s1 + len1), (s2, s2 + len2)]
    else:
        s1 = rng.randint(1, n - 1 - len1)
        spans = [(s1, s1 + len1)]

    masked, _ = splice(toks, [(a, b, (MASK,)) for a, b in spans])
    i = len(masked) + 1
    text = " ".join(masked) + f" {SEP} " + " ".join(toks)
    return FinetuneExample(text, (i, i + n), tuple(spans))


# ---------------------------------------------------------------------------
# Few-shot prompt

_PROMPT_HEADER = (
    "[INST] <<SYS>>\n"
    "You are a helpful assistant.\n"
    "<</SYS>>\n"
    "Use phrases from #input to make sentences.\n"
    "You should fill in [M] to make #input sentence more complete.\n"
    "You can't change any form or order of the words in #input.\n"
    "Make sure you fully use the phrases in #input. [/INST]"
)

_EXEMPLARS = (
    (
        "[M] sized city with eighty thousand [M]",
        "My town is a medium - sized city with eighty thousand inhabitants .",
    ),
    (
        "[M] my own plan too , [M] to be the same as them . [M]",
        "I have my own plan too , but I do n't want to be the same as them . "
        "I want to become a journalist .",
    ),
    (
        "Nowadays , each family has more than 1 [M] one of several reasons why [M]",
        "Nowadays , each family has more than 1 car for each person , this is "
        "only one of several reasons why people use less public transport .",
    ),
    (
        "[M] they might want to safeguard [M]",
        "On the other hand , they might want to safeguard the national image .",
    ),
    (
        "Lucy , Molly , and [M] a cowboy , and a [M]",
        "Lucy , Molly , and their parents , a cowboy , and a teacher .",
    ),
)


def build_fewshot_prompt(request: GenerationRequest) -> str:
    """Instruction header, five fixed exemplars, then the query template.

    The prompt ends on the ``#input:`` line with no output cue; the model
    is expected to continue with the completed sentence.
    """
    blocks = [_PROMPT_HEADER]
    for inp, out in _EXEMPLARS:
        blocks.append(f"#input: {inp}\n#output: {out}")
    blocks.append(f"#input: {request.template}")
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Backends

class GeneratorBackend(ABC):
    """A text generator. Implementations raise TransportError on failure
    and return an empty string to signal refusal.

    ``waits`` says whether a call can wait on something outside the
    process, such as a service. ``synthesize`` runs the calls of a backend
    that never waits inline, whatever its ``workers``, as threads would
    only slow it; a subclass that sets nothing keeps its threads.
    """

    name: str = "abstract"
    waits: bool = True

    @abstractmethod
    def generate_text(self, request: GenerationRequest) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the generator holds open; nothing by default."""


_FILLERS = (
    ("it", "was", "late"),
    ("she", "said", "that"),
    ("after", "the", "meeting"),
    ("in", "the", "morning"),
    ("we", "decided", "to", "stay"),
    ("he", "never", "knew"),
    ("on", "the", "way", "home"),
    ("they", "agreed", "that"),
    ("for", "a", "long", "time"),
    ("the", "children", "played"),
    ("before", "the", "trip"),
    ("everyone", "was", "happy"),
    ("at", "the", "station"),
    ("my", "friend", "thinks"),
    ("during", "the", "summer"),
    ("nothing", "else", "happened"),
)


class StubGenerator(GeneratorBackend):
    """Offline generator that splices filler phrases into the template.

    Each request derives its own RNG from (stub seed, request id,
    template), so output is reproducible no matter how requests are
    scheduled. Fault injection: ``refuse_rate`` returns empty text,
    ``drop_rate`` silently omits each pattern's tokens, both per request.
    """

    name = "stub"
    waits = False

    def __init__(self, seed: int = 0, drop_rate: float = 0.0, refuse_rate: float = 0.0):
        if not 0.0 <= drop_rate <= 1.0 or not 0.0 <= refuse_rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
        self.seed = seed
        self.drop_rate = drop_rate
        self.refuse_rate = refuse_rate

    def generate_text(self, request: GenerationRequest) -> str:
        rng = Random(stable_seed("stub", self.seed, request.id, request.template))
        if rng.random() < self.refuse_rate:
            return ""
        out: list[str] = []
        run: list[str] = []
        # A run of pattern tokens, ended by an [M] or the template's end, is
        # dropped on one draw; each [M] then draws its filler.
        for tok in [*request.template.split(" "), None]:
            if tok is not None and tok != MASK:
                run.append(tok)
                continue
            if run and rng.random() >= self.drop_rate:
                out.extend(run)
            run = []
            if tok == MASK:
                out.extend(rng.choice(_FILLERS))
        return " ".join(out)


class HttpGenerator(GeneratorBackend):
    """Client for a generation service.

    Wire shape: POST {"id", "template", "prompt", "max_tokens"} as JSON,
    response {"text": "..."}. ``prompt`` carries the few-shot prompt when
    ``fewshot`` is set, else null. Endpoint and bearer token default to
    the GECAUG_GENERATOR_URL / GECAUG_GENERATOR_TOKEN environment
    variables.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str | None = None,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_tokens: int = 128,
        fewshot: bool = False,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
    ):
        self.max_tokens = max_tokens
        self.fewshot = fewshot
        self._client = JsonHttpClient.from_env(
            "generator",
            endpoint,
            auth_token,
            timeout=timeout,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
        )

    def generate_text(self, request: GenerationRequest) -> str:
        payload = {
            "id": request.id,
            "template": request.template,
            "prompt": build_fewshot_prompt(request) if self.fewshot else None,
            "max_tokens": self.max_tokens,
        }
        return self._client.post_text(payload)

    def close(self) -> None:
        """Close the client's idle connections."""
        self._client.close()


def generate(request: GenerationRequest, backend: GeneratorBackend) -> GenerationResult:
    """Run one request, folding failures into the result status."""
    try:
        text = backend.generate_text(request)
    except TransportError as exc:
        return GenerationResult(request.id, "", STATUS_TRANSPORT_ERROR, detail=str(exc))
    if not text.strip():
        return GenerationResult(request.id, "", STATUS_REFUSED)
    return GenerationResult(request.id, text, STATUS_OK)
