"""Tiny scriptable HTTP server for exercising the wire backends.

The server runs a ThreadingHTTPServer on an ephemeral port and answers
each POST by popping the next step from a script. A step is either a
callable (request payload dict -> (status, body bytes)) or a plain
(status, json-serializable) tuple, optionally with a third item, a dict of
extra response headers. Requests beyond the script repeat the last step.
All received payloads, headers and request targets are recorded for
assertions, and so is the number of connections accepted.

By default every reply closes its connection (HTTP/1.0). ``keep_alive``
answers HTTP/1.1 and keeps connections open; ``drop_idle`` also answers
HTTP/1.1 without ``Connection: close`` but closes each connection after
its reply, as a server that times out idle connections does. A CONNECT
request is recorded in ``targets`` and refused with 502.

Each reply goes out in one write: the handler's ``wfile`` is buffered and
flushed after each request. Written head first and body second, a reply
on a kept-alive connection would wait about 40 ms for the client's
delayed ACK (Nagle's algorithm).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class ScriptedServer:
    def __init__(self, script, keep_alive: bool = False, drop_idle: bool = False):
        self.script = list(script)
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        self.targets: list[str] = []
        self.connections = 0
        self._lock = threading.Lock()
        recorder = self

        class Handler(BaseHTTPRequestHandler):
            wbufsize = 1 << 16
            if keep_alive or drop_idle:
                protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with recorder._lock:
                    recorder.connections += 1

            def do_CONNECT(self):
                with recorder._lock:
                    recorder.targets.append(self.path)
                self.send_error(502)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except ValueError:
                    payload = raw
                with recorder._lock:
                    recorder.requests.append(payload)
                    recorder.headers.append(dict(self.headers))
                    recorder.targets.append(self.path)
                    step = recorder.script[0]
                    if len(recorder.script) > 1:
                        recorder.script.pop(0)
                extra = {}
                if callable(step):
                    status, body = step(payload)
                else:
                    status, obj, *rest = step
                    body = json.dumps(obj).encode("utf-8")
                    extra = rest[0] if rest else {}
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in extra.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)
                if drop_idle:
                    self.close_connection = True

            def log_message(self, fmt, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False
