"""JSON-over-HTTP client shared by generator and corrector backends.

One policy for every remote call: POST a JSON object, expect a JSON object
back. Timeouts, connection failures, 429 and any 5xx are retried with
exponential backoff (base 0.5 s, factor 2, at most 5 attempts); a 429 or
503 whose ``Retry-After`` gives seconds waits that long instead, at most
the longest delay of the schedule. Other 4xx and malformed response bodies
fail immediately; retrying cannot fix them.

The client is built on ``http.client`` and keeps one stack of idle
keep-alive connections, to the endpoint or to its proxy: a post takes one,
or opens one if none is idle, and puts it back after a complete reply.
``close()``, or leaving a ``with`` block, closes the idle connections.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import partial
from typing import Callable
from urllib.parse import SplitResult, quote, unquote, urlsplit

from .corpus import CodedError

# Characters left as they are in the request target; the rest is
# percent-encoded as UTF-8, as requests re-quotes a URL.
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"

# Each back-off is this many times the one before it.
_BACKOFF_FACTOR = 2.0


class TransportError(CodedError):
    """A remote call that failed for good, with the attempt count."""

    code = "TRANSPORT"

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (attempts={attempts})")
        self.attempts = attempts


def _basic_auth(parts: SplitResult) -> str:
    """Basic credentials from a URL's user info, latin-1 encoded as requests does."""
    import base64

    creds = f"{unquote(parts.username or '')}:{unquote(parts.password or '')}"
    return "Basic " + base64.b64encode(creds.encode("latin-1")).decode("ascii")


def _route(parts: SplitResult, port: int | None, timeout: float):
    """How to reach ``parts``: a connection factory, the request target and
    the headers a plain-HTTP proxy needs.

    The proxy comes from the environment (``HTTP(S)_PROXY``, ``ALL_PROXY``,
    ``NO_PROXY``), read once here. HTTPS goes through a proxy in a CONNECT
    tunnel; plain HTTP sends the proxy the absolute URI.
    """
    import http.client
    import ssl
    from urllib.request import getproxies, proxy_bypass

    connection: Callable[..., http.client.HTTPConnection] = http.client.HTTPConnection
    if parts.scheme == "https":
        connection = partial(http.client.HTTPSConnection, context=ssl.create_default_context())
    query = f"?{parts.query}" if parts.query else ""
    target = quote((parts.path or "/") + query, safe=_TARGET_SAFE)
    proxies = getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(parts.hostname):
        return partial(connection, parts.hostname, port, timeout=timeout), target, {}
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if via.scheme != "http" or not via.hostname:
        raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    auth = {"Proxy-Authorization": _basic_auth(via)} if via.username is not None else {}
    if parts.scheme == "http":
        absolute = f"http://{parts.netloc.rpartition('@')[2]}{target}"
        return partial(connection, via.hostname, via.port, timeout=timeout), absolute, auth

    def tunnel() -> http.client.HTTPConnection:
        conn = connection(via.hostname, via.port, timeout=timeout)
        conn.set_tunnel(parts.hostname, port, auth)
        return conn

    return tunnel, target, {}


class JsonHttpClient:
    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not endpoint:
            raise ValueError("endpoint is empty")
        parts = urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"endpoint must be an http:// or https:// URL with a host: {endpoint!r}"
            )
        try:
            port = parts.port
        except ValueError as exc:
            raise ValueError(f"endpoint has a bad port: {endpoint!r}") from exc
        # Imported here, not at module top: only the http backends need it.
        import http.client

        self.endpoint = endpoint
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        # A Retry-After never waits longer than the schedule's longest delay.
        self._max_delay = max(map(self._delay, range(1, max_attempts)), default=0.0)
        self._retryable = (OSError, http.client.HTTPException)
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        elif parts.username is not None:
            self._headers["Authorization"] = _basic_auth(parts)

        self._connect, self._target, proxy_headers = _route(parts, port, timeout)
        self._headers.update(proxy_headers)

    @classmethod
    def from_env(
        cls, kind: str, endpoint: str | None, auth_token: str | None, **options
    ) -> JsonHttpClient:
        """A ``kind`` client; endpoint and token default to GECAUG_<KIND>_URL / _TOKEN."""
        var = f"GECAUG_{kind.upper()}"
        endpoint = endpoint or os.environ.get(f"{var}_URL")
        if not endpoint:
            raise ValueError(
                f"{kind} endpoint not configured (pass endpoint= or set {var}_URL)"
            )
        return cls(endpoint, auth_token=auth_token or os.environ.get(f"{var}_TOKEN"), **options)

    def __enter__(self) -> JsonHttpClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle connection. Call it with no post in flight."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def post_text(self, payload: dict) -> str:
        """POST ``payload`` and return the string ``text`` of the reply."""
        body = self.post(payload)
        if not isinstance(body.get("text"), str):
            raise TransportError("response object has no string 'text'", attempts=1)
        return body["text"]

    def post(self, payload: dict) -> dict:
        """POST ``payload`` and return the decoded JSON object."""
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_reason = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            delay = self._delay(attempt)
            try:
                status, retry_after, reply = self._exchange(data)
            except self._retryable as exc:
                last_reason = f"connection failure: {exc}"
            else:
                if 200 <= status < 300:
                    try:
                        body = json.loads(reply)
                    except ValueError as exc:
                        raise TransportError(
                            f"response is not JSON: {exc}", attempts=attempt
                        ) from exc
                    if not isinstance(body, dict):
                        raise TransportError(
                            "response JSON is not an object", attempts=attempt
                        )
                    return body
                if status != 429 and status < 500:
                    raise TransportError(f"status {status}", attempts=attempt)
                last_reason = f"status {status}"
                # Only delay-seconds is honoured; an HTTP-date keeps the schedule.
                if status in (429, 503) and retry_after and retry_after.strip().isdecimal():
                    delay = min(int(retry_after), self._max_delay)
            if attempt < self.max_attempts:
                self._sleep(delay)
        raise TransportError(last_reason, attempts=self.max_attempts)

    def _delay(self, attempt: int) -> float:
        """The back-off after failed attempt ``attempt`` (1-based)."""
        return self.backoff_base * _BACKOFF_FACTOR ** (attempt - 1)

    def _exchange(self, data: bytes) -> tuple[int, str | None, bytes]:
        """POST ``data`` on an idle connection or a new one: status, Retry-After, body."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connect()
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._target, data, self._headers)
                resp = conn.getresponse()
            except ConnectionError:
                # The server closed a kept-alive connection while it was idle:
                # reconnect once, which is not an attempt.
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, data, self._headers)
                resp = conn.getresponse()
            reply = resp.status, resp.getheader("Retry-After"), resp.read()
        except BaseException:
            # A failed exchange leaves the connection mid-request: drop it.
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return reply
