from __future__ import annotations

import random
from pathlib import Path

import pytest

from gecaug import (
    MASK,
    SEP,
    GenerationRequest,
    GeneratorBackend,
    HttpGenerator,
    StubGenerator,
    TransportError,
    assemble_input,
    build_fewshot_prompt,
    build_finetune_example,
    generate,
)
from gecaug._http import JsonHttpClient

from _server import ScriptedServer

GOLDEN_PROMPT = Path(__file__).parent / "data" / "golden_prompt.txt"


def test_assemble_input_structure():
    seen = set()
    for seed in range(200):
        req = assemble_input([("a", "b")], random.Random(seed), request_id="r")
        assert req.patterns == (("a", "b"),)
        assert req.id == "r"
        seen.add(req.template)
    assert seen == {"a b", "[M] a b", "a b [M]", "[M] a b [M]"}


def test_assemble_input_two_patterns():
    req = assemble_input([("a", "b"), ("c",)], random.Random(3), request_id="r")
    core = "a b [M] c"
    assert core in req.template
    # Between-pattern placeholder is always present, flanks vary.
    stripped = req.template.removeprefix("[M] ").removesuffix(" [M]")
    assert stripped == core


def test_assemble_input_rejects_bad_patterns():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        assemble_input([], rng)
    with pytest.raises(ValueError):
        assemble_input([("a",), ("b",), ("c",)], rng)
    with pytest.raises(ValueError):
        assemble_input([()], rng)
    with pytest.raises(ValueError):
        assemble_input([("a b",)], rng)


def test_finetune_example_reference_masking():
    tokens = (
        "They", "will", "have", "to", "move", "from",
        "one", "place", "to", "another", ".",
    )
    expected_input = (
        "They will have to [M] place to another . "
        "<sep> They will have to move from one place to another ."
    )
    for seed in range(5000):
        ex = build_finetune_example(tokens, random.Random(seed))
        if ex.masked_spans == ((4, 7),):
            assert ex.input == expected_input
            assert ex.target_span == (10, 21)
            break
    else:
        raise AssertionError("no seed produced the reference masking")


def test_finetune_example_invariants():
    rng = random.Random(31)
    for case in range(1000):
        n = rng.randint(4, 14)
        tokens = [f"w{case}x{i}" for i in range(n)]
        ex = build_finetune_example(tokens, rng)
        masked_part, _, full_part = ex.input.partition(f" {SEP} ")
        assert full_part == " ".join(tokens)
        masked_tokens = masked_part.split(" ")
        # The recorded spans reconstruct the masked side exactly.
        rebuilt: list[str] = []
        cursor = 0
        for start, end in ex.masked_spans:
            assert 1 <= start < end <= n - 1
            rebuilt.extend(tokens[cursor:start])
            rebuilt.append(MASK)
            cursor = end
        rebuilt.extend(tokens[cursor:])
        assert masked_tokens == rebuilt
        assert 1 <= len(ex.masked_spans) <= 2
        assert masked_tokens[0] != MASK and masked_tokens[-1] != MASK
        for (a, b) in ex.masked_spans:
            assert 1 <= b - a <= 4
        if len(ex.masked_spans) == 2:
            assert ex.masked_spans[1][0] > ex.masked_spans[0][1]
        i, j = ex.target_span
        assert ex.input.split(" ")[i:j] == tokens


def test_finetune_example_rejects_short_sentences():
    with pytest.raises(ValueError):
        build_finetune_example(("a", "b", "c"), random.Random(0))


def test_fewshot_prompt_matches_golden_file():
    req = GenerationRequest(
        (("And", "I", "went"), ("important",)),
        "And I went [M] important [M]",
        "0",
    )
    assert build_fewshot_prompt(req) == GOLDEN_PROMPT.read_text(encoding="utf-8")


def test_fewshot_prompt_shape():
    req = GenerationRequest((("x",),), "x [M]", "9")
    prompt = build_fewshot_prompt(req)
    assert prompt.count("#input:") == 6
    assert prompt.count("#output:") == 5
    assert prompt.endswith("#input: x [M]")
    assert prompt.startswith("[INST] <<SYS>>\n")


def test_stub_replaces_masks_and_keeps_patterns():
    backend = StubGenerator(seed=5)
    req = assemble_input([("move", "from", "one"), ("the", "city")], random.Random(1), "7")
    text = backend.generate_text(req)
    assert MASK not in text
    assert "move from one" in text
    assert "the city" in text


def test_stub_is_order_independent():
    backend = StubGenerator(seed=5)
    reqs = [
        assemble_input([("a", "b")], random.Random(i), str(i)) for i in range(10)
    ]
    forward = [backend.generate_text(r) for r in reqs]
    backward = [backend.generate_text(r) for r in reversed(reqs)]
    assert forward == list(reversed(backward))


def test_stub_fault_injection():
    req = GenerationRequest((("a", "b"),), "[M] a b [M]", "1")
    refuser = StubGenerator(seed=1, refuse_rate=1.0)
    assert refuser.generate_text(req) == ""
    assert generate(req, refuser).status == "refused"
    dropper = StubGenerator(seed=1, drop_rate=1.0)
    text = dropper.generate_text(req)
    assert "a b" not in text
    assert text != ""
    with pytest.raises(ValueError):
        StubGenerator(drop_rate=1.5)


def test_generate_wraps_transport_error():
    class Exploding(GeneratorBackend):
        name = "boom"

        def generate_text(self, request):
            raise TransportError("unreachable", attempts=3)

    result = generate(GenerationRequest((("a",),), "a", "1"), Exploding())
    assert result.status == "transport_error"
    assert "attempts=3" in result.detail
    assert result.text == ""


def _request() -> GenerationRequest:
    return GenerationRequest((("a", "b"),), "[M] a b", "42")


def test_http_generator_success_and_payload():
    with ScriptedServer([(200, {"text": "so a b went"})]) as server:
        backend = HttpGenerator(endpoint=server.url, auth_token="sekrit")
        result = generate(_request(), backend)
        assert result.status == "ok"
        assert result.text == "so a b went"
    payload = server.requests[0]
    assert payload == {
        "id": "42",
        "template": "[M] a b",
        "prompt": None,
        "max_tokens": 128,
    }
    assert server.headers[0].get("Authorization") == "Bearer sekrit"


def test_http_generator_fewshot_prompt():
    with ScriptedServer([(200, {"text": "ok"})]) as server:
        backend = HttpGenerator(endpoint=server.url, fewshot=True, max_tokens=64)
        backend.generate_text(_request())
    payload = server.requests[0]
    assert payload["prompt"] == build_fewshot_prompt(_request())
    assert payload["max_tokens"] == 64


def test_http_generator_retries_then_succeeds():
    script = [(500, {}), (429, {}), (200, {"text": "eventually"})]
    with ScriptedServer(script) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001)
        assert backend.generate_text(_request()) == "eventually"
        assert len(server.requests) == 3


def test_http_generator_gives_up_after_max_attempts():
    with ScriptedServer([(503, {})]) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001, max_attempts=3)
        result = generate(_request(), backend)
        assert result.status == "transport_error"
        assert "attempts=3" in result.detail
        assert len(server.requests) == 3


def test_http_generator_client_error_fails_immediately():
    with ScriptedServer([(400, {"error": "bad"})]) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001)
        result = generate(_request(), backend)
        assert result.status == "transport_error"
        assert len(server.requests) == 1


def test_http_generator_malformed_bodies():
    with ScriptedServer([lambda p: (200, b"this is not json")]) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001)
        assert generate(_request(), backend).status == "transport_error"
        assert len(server.requests) == 1
    with ScriptedServer([(200, {"no_text": 1})]) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001)
        assert generate(_request(), backend).status == "transport_error"
    with ScriptedServer([(200, ["not", "an", "object"])]) as server:
        backend = HttpGenerator(endpoint=server.url, backoff_base=0.001)
        assert generate(_request(), backend).status == "transport_error"


def test_http_generator_blank_text_is_refusal():
    with ScriptedServer([(200, {"text": "   "})]) as server:
        backend = HttpGenerator(endpoint=server.url)
        assert generate(_request(), backend).status == "refused"


def test_http_generator_env_configuration(monkeypatch: pytest.MonkeyPatch):
    monkeypatch.delenv("GECAUG_GENERATOR_URL", raising=False)
    with pytest.raises(ValueError):
        HttpGenerator()
    with ScriptedServer([(200, {"text": "from env"})]) as server:
        monkeypatch.setenv("GECAUG_GENERATOR_URL", server.url)
        monkeypatch.setenv("GECAUG_GENERATOR_TOKEN", "envtok")
        backend = HttpGenerator()
        assert backend.generate_text(_request()) == "from env"
    assert server.headers[0].get("Authorization") == "Bearer envtok"


def test_json_client_backoff_schedule():
    sleeps: list[float] = []
    with ScriptedServer([(500, {})]) as server:
        client = JsonHttpClient(
            server.url, max_attempts=4, backoff_base=0.5, sleep=sleeps.append
        )
        with pytest.raises(TransportError) as err:
            client.post({"x": 1})
        assert err.value.attempts == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_json_client_retries_connection_refused():
    sleeps: list[float] = []
    client = JsonHttpClient(
        "http://127.0.0.1:1/", max_attempts=2, backoff_base=0.001, sleep=sleeps.append
    )
    with pytest.raises(TransportError) as err:
        client.post({})
    assert err.value.attempts == 2
    assert "connection failure" in str(err.value)
    assert len(sleeps) == 1
