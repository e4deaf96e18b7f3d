"""Transport behaviour of the JSON-over-HTTP client: back-off, proxies,
connection reuse and running without ``requests``."""

from __future__ import annotations

import http.client
import subprocess
import sys

import pytest

from gecaug._concurrent import map_ordered
from gecaug._http import JsonHttpClient, TransportError

from _server import ScriptedServer
from conftest import cli_env

_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture()
def no_proxy_env(monkeypatch: pytest.MonkeyPatch) -> pytest.MonkeyPatch:
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


@pytest.mark.parametrize(
    "status, retry_after, slept",
    [
        (429, "1", 1),
        (503, "0", 0),
        (503, "120", 2.0),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
        (503, "soon", 0.5),
        (500, "1", 0.5),
    ],
    ids=["honoured-429", "honoured-503", "capped", "http-date-ignored", "unparsable-ignored",
         "not-429-or-503"],
)
def test_retry_after(status, retry_after, slept):
    sleeps: list[float] = []
    script = [(status, {}, {"Retry-After": retry_after}), (200, {"text": "ok"})]
    with ScriptedServer(script) as server:
        # Schedule 0.5, 1.0, 2.0: no Retry-After waits longer than 2.0.
        client = JsonHttpClient(server.url, max_attempts=4, backoff_base=0.5, sleep=sleeps.append)
        assert client.post({}) == {"text": "ok"}
    assert sleeps == [slept]


def test_http_proxy_receives_the_absolute_uri(no_proxy_env):
    with ScriptedServer([(200, {"text": "via proxy"})]) as proxy:
        host_port = proxy.url.removeprefix("http://").rstrip("/")
        no_proxy_env.setenv("HTTP_PROXY", f"http://user:pw@{host_port}")
        client = JsonHttpClient("http://gecaug.invalid:8080/generate?v=1", auth_token="tok")
        assert client.post_text({"id": "1"}) == "via proxy"
    assert proxy.targets == ["http://gecaug.invalid:8080/generate?v=1"]
    headers = proxy.headers[0]
    assert headers["Host"] == "gecaug.invalid:8080"
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwdw=="
    assert headers["Authorization"] == "Bearer tok"


def test_no_proxy_host_bypasses_the_proxy(no_proxy_env):
    with ScriptedServer([(200, {})]) as proxy, ScriptedServer([(200, {"text": "direct"})]) as server:
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        assert JsonHttpClient(server.url).post_text({}) == "direct"
    assert proxy.connections == 0 and proxy.requests == []
    assert server.targets == ["/"]


def test_https_goes_through_a_connect_tunnel(no_proxy_env):
    with ScriptedServer([(200, {})]) as proxy:
        no_proxy_env.setenv("HTTPS_PROXY", proxy.url)
        client = JsonHttpClient("https://gecaug.invalid/generate", max_attempts=1)
        with pytest.raises(TransportError, match="connection failure"):
            client.post({})
    assert proxy.targets == ["gecaug.invalid:443"]
    assert proxy.requests == []


@pytest.mark.parametrize(
    "endpoint",
    ["localhost:9/x", "ftp://gecaug.invalid/x", "http:///x", "http://gecaug.invalid:99999/"],
)
def test_bad_endpoint_is_rejected_when_built(endpoint):
    with pytest.raises(ValueError):
        JsonHttpClient(endpoint)


def test_only_http_proxies_are_supported(no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(ValueError, match="only http:// proxies"):
        JsonHttpClient("http://gecaug.invalid/")


def test_request_target_is_percent_encoded():
    with ScriptedServer([(200, {})]) as server:
        JsonHttpClient(server.url + "gen erate?q=ü&r=%2F").post({})
    assert server.targets == ["/gen%20erate?q=%C3%BC&r=%2F"]


def test_endpoint_credentials_are_basic_auth_unless_a_token_is_set():
    with ScriptedServer([(200, {})]) as server:
        endpoint = server.url.replace("http://", "http://us%40er:pw@")
        JsonHttpClient(endpoint).post({})
        JsonHttpClient(endpoint, auth_token="tok").post({})
    assert [h["Authorization"] for h in server.headers] == ["Basic dXNAZXI6cHc=", "Bearer tok"]
    assert server.targets == ["/", "/"]


def opened_connections(client: JsonHttpClient) -> list:
    """Record every connection ``client`` opens from now on, in order."""
    opened = []
    connect = client._connect

    def record():
        opened.append(connect())
        return opened[-1]

    client._connect = record
    return opened


def test_sequential_posts_reuse_one_connection():
    with ScriptedServer([(200, {"text": "ok"})], keep_alive=True) as server, JsonHttpClient(
        server.url
    ) as client:
        for i in range(5):
            assert client.post_text({"id": i}) == "ok"
        assert len(server.requests) == 5
        assert server.connections == 1


def test_concurrent_runs_share_the_idle_connections(fast_switching):
    with ScriptedServer([(200, {"text": "ok"})], keep_alive=True) as server, JsonHttpClient(
        server.url
    ) as client:
        for _ in range(2):
            replies = list(map_ordered(lambda i: client.post_text({"id": i}), range(12), 3))
            assert replies == ["ok"] * 12
        assert len(server.requests) == 24
        # No more connections than posts in flight at once, over both runs.
        assert 1 <= server.connections <= 3


def test_server_closing_idle_connections_costs_no_retry():
    sleeps: list[float] = []
    with ScriptedServer([(200, {"text": "ok"})], drop_idle=True) as server, JsonHttpClient(
        server.url, sleep=sleeps.append
    ) as client:
        for i in range(5):
            assert client.post_text({"id": i}) == "ok"
    assert sleeps == []
    assert len(server.requests) == 5
    assert server.connections == 5


def test_close_closes_every_idle_connection():
    with ScriptedServer([(200, {"text": "ok"})], keep_alive=True) as server:
        with JsonHttpClient(server.url) as client:
            opened = opened_connections(client)
            list(map_ordered(lambda i: client.post({"id": i}), range(12), 3))
            pooled = list(opened)
            assert 1 <= len(pooled) <= 3 and all(conn.sock is not None for conn in pooled)
            client.close()
            assert all(conn.sock is None for conn in pooled)
            client.post({})
            assert len(opened) == len(pooled) + 1 and opened[-1].sock is not None
        assert all(conn.sock is None for conn in opened)
        assert server.connections == len(opened)


def test_a_connection_whose_exchange_raised_is_not_reused():
    sleeps: list[float] = []
    with ScriptedServer([(200, {"text": "ok"})], keep_alive=True) as server, JsonHttpClient(
        server.url, sleep=sleeps.append
    ) as client:
        opened = opened_connections(client)
        client.post({})
        broken = opened[0]
        getresponse = broken.getresponse

        def cut_short():
            getresponse().read()  # the server's reply is all sent; the client fails it
            raise http.client.IncompleteRead(b"")

        broken.getresponse = cut_short
        for i in range(3):
            assert client.post_text({"id": i}) == "ok"
        assert len(opened) == 2 and broken.sock is None
        assert sleeps == [0.5]  # the failed exchange cost one attempt
        assert server.connections == 2


_WITHOUT_REQUESTS = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "requests":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, Refuse())
from gecaug import GenerationRequest, HttpCorrector, HttpGenerator
generator = HttpGenerator(endpoint=sys.argv[1])
print(generator.generate_text(GenerationRequest((("a", "b"),), "[M] a b", "7")))
print(HttpCorrector(endpoint=sys.argv[1]).correct_text("a b", request_id="7"))
"""


def test_http_backends_run_without_requests():
    script = [(200, {"text": "so a b"}), (200, {"text": "a b ."})]
    with ScriptedServer(script) as server:
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_REQUESTS, server.url],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["so a b", "a b ."]
    assert server.requests == [
        {"id": "7", "template": "[M] a b", "prompt": None, "max_tokens": 128},
        {"id": "7", "text": "a b"},
    ]
