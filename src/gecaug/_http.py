"""JSON-over-HTTP client shared by generator and corrector backends.

One policy for every remote call: POST a JSON object, expect a JSON object
back. Timeouts, connection failures, 429 and any 5xx are retried with
exponential backoff (base 0.5 s, factor 2, at most 5 attempts); a 429 or
503 whose ``Retry-After`` gives seconds waits that long instead, at most
the longest delay of the schedule. Other 4xx and malformed response bodies
fail immediately; retrying cannot fix them.

The client speaks HTTP/1.1 over a socket itself. It builds the request
head once, sends head and body in one write, and reads each reply from the
connection's buffered reader: the status line (1xx interim replies are
skipped), the headers, and the body by ``Content-Length``, by chunked
encoding or up to the server's close. A reply that breaks this framing is
a ``ProtocolError`` and is retried as a connection failure is.

The client keeps one stack of idle keep-alive connections, to the endpoint
or to its proxy: a post takes one, or opens one if none is idle, and puts
it back after a complete HTTP/1.1 reply without ``Connection: close``.
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

# A reply line longer than this, or a head with more lines (its blank
# line included), is refused: the limits http.client applies.
_MAX_LINE = 65536
_MAX_HEADERS = 100

# The most bytes of a body or chunk read in one call.
_MAX_READ = 1 << 20


class TransportError(CodedError):
    """A remote call that failed for good, with the attempt count."""

    code = "TRANSPORT"

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (attempts={attempts})")
        self.attempts = attempts


class ProtocolError(Exception):
    """A reply that breaks HTTP/1.1 framing: a bad status line, a bad chunk
    size, a body cut short or a line or head too long."""


def _refuse_controls(what: str, value: str, space: bool = False) -> str:
    """``value``, refused if a control character (or, with ``space``, a
    space) in it could end a line or field of the request head."""
    if any(c < " " or c == "\x7f" or (space and c == " ") for c in value):
        raise ValueError(f"{what} contains a control character{' or space' if space else ''}")
    return value


def _basic_auth(parts: SplitResult) -> str:
    """Basic credentials from a URL's user info, latin-1 encoded as requests does."""
    import base64

    creds = f"{unquote(parts.username or '')}:{unquote(parts.password or '')}"
    _refuse_controls(f"user info of {parts.hostname}", creds)
    return "Basic " + base64.b64encode(creds.encode("latin-1")).decode("ascii")


def _proxy_for(parts: SplitResult) -> str | None:
    """The proxy the environment names for ``parts``, or None.

    ``urllib.request`` reads ``HTTP(S)_PROXY``, ``ALL_PROXY`` and
    ``NO_PROXY``, and on macOS and Windows the system settings too. It is
    imported only where it can find a proxy.
    """
    import sys

    if sys.platform not in ("darwin", "win32") and not any(
        name.lower().endswith("_proxy") for name in os.environ
    ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    return None if not proxy or proxy_bypass(parts.hostname) else proxy


def _route(parts: SplitResult, port: int | None, timeout: float):
    """How to reach ``parts``: a connection factory, the request target, the
    ``Host`` header and the headers a plain-HTTP proxy needs.

    The proxy is read from the environment once, here. HTTPS goes through a
    proxy in a CONNECT tunnel; plain HTTP sends the proxy the absolute URI.
    """
    host = _refuse_controls(f"host {parts.hostname!r}", parts.hostname, space=True)
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:
        host = f"[{host}]"
    default_port = 443 if parts.scheme == "https" else 80
    authority = f"{host}:{port or default_port}"
    host_header = authority if port not in (None, default_port) else host
    tls = None
    if parts.scheme == "https":
        import ssl

        tls = partial(ssl.create_default_context().wrap_socket, server_hostname=parts.hostname)
    query = f"?{parts.query}" if parts.query else ""
    target = quote((parts.path or "/") + query, safe=_TARGET_SAFE)
    proxy = _proxy_for(parts)
    if proxy is None:
        address = (parts.hostname, port or default_port)
        return partial(_open, address, timeout, tls), target, host_header, {}
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if via.scheme != "http" or not via.hostname:
        raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    address = (via.hostname, via.port or 80)
    auth = {"Proxy-Authorization": _basic_auth(via)} if via.username is not None else {}
    if parts.scheme == "http":
        netloc = parts.netloc.rpartition("@")[2]
        return partial(_open, address, timeout), f"http://{netloc}{target}", netloc, auth
    connect = [f"CONNECT {authority} HTTP/1.1", f"Host: {authority}"]
    connect += [f"{name}: {value}" for name, value in auth.items()]
    tunnel = ("\r\n".join(connect) + "\r\n\r\n").encode("latin-1")
    return partial(_open, address, timeout, tls, tunnel), target, host_header, {}


class _Connection:
    """A socket to the endpoint or its proxy, and the buffered reader that
    its replies are read from. ``sock`` is None once it is closed."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None


def _open(
    address: tuple[str, int], timeout: float, tls=None, tunnel: bytes = b""
) -> _Connection:
    """A connection to ``address``: through the CONNECT request ``tunnel``
    first, if one is given, and wrapped in TLS by ``tls``, if given."""
    import socket

    sock = socket.create_connection(address, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tunnel:
            sock.sendall(tunnel)
            with sock.makefile("rb") as reader:
                status = _read_head(reader)[1]
            if status != 200:
                raise OSError(f"tunnel connection failed: status {status}")
        if tls is not None:
            sock = tls(sock)
    except BaseException:
        sock.close()
        raise
    return _Connection(sock)


def _line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ProtocolError(f"{what} longer than {_MAX_LINE} bytes")
    return line


def _read_exact(reader, size: int) -> bytes:
    """``size`` bytes, read at most ``_MAX_READ`` at a time: a huge length
    fails where the reply ends, not where its buffer would be allocated."""
    parts = []
    left = size
    while left > 0:
        part = reader.read(min(left, _MAX_READ))
        if not part:
            raise ProtocolError(f"reply cut short: {size - left} of {size} bytes")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _read_head(reader) -> tuple[bool, int, dict[str, str]]:
    """The head of the next final reply: whether it is HTTP/1.1, its status
    and its headers by lowercased name (the first of repeated ones).

    Interim 1xx replies are skipped. A server that closes before a status
    line raises ``ConnectionResetError``, as on a kept-alive connection
    that it closed while idle.
    """
    status = 0
    while status < 200:
        line = _line(reader, "status line")
        if not line:
            raise ConnectionResetError("the server closed the connection without a reply")
        version, code, *_ = str(line, "latin-1").split(None, 2) + ["", ""]
        try:
            status = int(code)
        except ValueError:
            status = 0
        if not version.startswith("HTTP/") or not 100 <= status <= 999:
            raise ProtocolError(f"bad status line {line!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = _line(reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "latin-1").partition(":")
            if colon:
                headers.setdefault(name.lower(), value.lstrip(" \t").rstrip("\r\n"))
        else:
            raise ProtocolError(f"more than {_MAX_HEADERS} header lines")
    if version in ("HTTP/1.0", "HTTP/0.9"):
        return False, status, headers
    if version.startswith("HTTP/1."):
        return True, status, headers
    raise ProtocolError(f"unsupported protocol {version!r}")


def _read_chunked(reader) -> bytes:
    """A chunked body; chunk extensions and the trailer are dropped."""
    chunks = []
    while True:
        line = _line(reader, "chunk size line")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise ProtocolError(f"bad chunk size line {line!r}")
        if size == 0:
            break
        chunks.append(_read_exact(reader, size))
        _read_exact(reader, 2)  # the line end after the chunk's data
    while _line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _read_body(reader, head: tuple[bool, int, dict[str, str]]) -> tuple[bytes, bool]:
    """The body of the reply whose head ``_read_head`` gave, and whether the
    connection can carry the next request."""
    http11, status, headers = head
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = _read_chunked(reader)
    else:
        try:
            length = 0 if status in (204, 304) else int(headers["content-length"])
        except (KeyError, ValueError):
            length = -1
        if length < 0:
            # No usable length: the body ends where the server closes.
            return reader.read(), False
        body = _read_exact(reader, length)
    return body, http11 and "close" not in headers.get("connection", "").lower()


class JsonHttpClient:
    # What a failed exchange raises when another attempt may succeed.
    _retryable = (OSError, ProtocolError)

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

        self.endpoint = endpoint
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        # A Retry-After never waits longer than the schedule's longest delay.
        self._max_delay = max(map(self._delay, range(1, max_attempts)), default=0.0)
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []
        headers = {"Content-Type": "application/json"}
        if auth_token:
            headers["Authorization"] = "Bearer " + _refuse_controls("auth token", auth_token)
        elif parts.username is not None:
            headers["Authorization"] = _basic_auth(parts)

        self._connect, target, host, proxy_headers = _route(parts, port, timeout)
        headers.update(proxy_headers)
        head = [f"POST {target} HTTP/1.1", f"Host: {host}", "Accept-Encoding: identity"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        # Each request appends its body's length, a blank line and the body.
        self._head = "\r\n".join([*head, "Content-Length: "]).encode("latin-1")

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
        request = b"%s%d\r\n\r\n%s" % (self._head, len(data), data)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if not reused:
            conn = self._connect()
        try:
            try:
                conn.sock.sendall(request)
                head = _read_head(conn.reader)
            except ConnectionError:
                # The server closed a kept-alive connection while it was idle:
                # reconnect once, which is not an attempt.
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                conn.sock.sendall(request)
                head = _read_head(conn.reader)
            body, reuse = _read_body(conn.reader, head)
        except BaseException:
            # A failed exchange leaves the connection mid-request: drop it.
            conn.close()
            raise
        if reuse:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        _, status, headers = head
        return status, headers.get("retry-after"), body
