"""Generation and correction services for the ``synth-remote`` workload.

Both speak the wire shapes of ``HttpGenerator`` and ``HttpCorrector``:
POST a JSON object, get ``{"text": ...}`` back. They run as threads of
the benchmark process on 127.0.0.1, one thread per keep-alive connection.

Latency: every request sleeps a delay derived only from its service name
and request id, 15 ms plus a Pareto(1.5) tail of scale 5 ms, capped at
150 ms. The same ids therefore cost the same wait on every seed and run.
The reply then goes out in one write on a socket with Nagle's algorithm
off; a reply split over two writes would wait for a delayed ACK.

The profile is made up to give a heavy tail well above the client's CPU
cost per call; it is not measured from any real generation service.

Neither service ever answers 429 or 5xx: the client backs off 0.5 s on
those, and the run would measure sleeping.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import socketserver
import threading
import time
from random import Random

BASE_DELAY_S = 0.015
TAIL_SCALE_S = 0.005
TAIL_ALPHA = 1.5
MAX_DELAY_S = 0.150
REFUSE_RATE = 0.05
MASK = "[M]"

# The generator's own filler phrases. Every token starts with a vowel, "y"
# or "q", which no vocabulary word does, and none is an error-pattern token.
FILLERS = (
    ("yesterday", "evening"), ("quite", "unexpectedly"), ("as", "usual"),
    ("once", "again"), ("every", "evening"), ("yet", "again"), ("oddly", "enough"),
    ("up", "until", "yesterday"), ("as", "expected"), ("every", "year"),
    ("eventually",), ("almost", "always"),
)


def _unit(*parts: str) -> float:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") + 0.5) / 2.0**64


def delay_for(service: str, request_id: str) -> float:
    """Seconds the service waits before answering this request id."""
    tail = TAIL_SCALE_S * (_unit("delay", service, request_id) ** (-1.0 / TAIL_ALPHA) - 1.0)
    return min(BASE_DELAY_S + tail, MAX_DELAY_S)


def fill_template(template: str, request_id: str) -> str:
    """Replace each [M] with a filler chosen by the request id."""
    rng = Random(request_id)
    out: list[str] = []
    for tok in template.split(" "):
        out.extend(rng.choice(FILLERS) if tok == MASK else (tok,))
    return " ".join(out)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = False  # server_close() joins the connection threads
    block_on_close = True


class _Handler(http.server.BaseHTTPRequestHandler):
    """Answers POSTs for ``server.service``, keeping connections alive.

    The buffered ``wfile`` holds the head and the body until the handler
    flushes it after each request, so each reply goes out in one write.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    def do_POST(self):
        reply = self.server.service.handle(self.rfile.read(int(self.headers["Content-Length"])))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):
        pass


class Service:
    """One JSON-over-HTTP endpoint on an ephemeral port.

    ``answer(payload) -> text`` builds the reply. ``requests`` counts the
    requests answered and ``delay_s`` sums the delays slept.
    """

    def __init__(self, name: str, answer):
        self.name = name
        self.requests = 0
        self.delay_s = 0.0
        self._answer = answer
        self._lock = threading.Lock()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.service = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"service-{name}", daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def start(self) -> "Service":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def handle(self, body: bytes) -> bytes:
        payload = json.loads(body)
        delay = delay_for(self.name, str(payload["id"]))
        time.sleep(delay)
        text = self._answer(payload)
        with self._lock:
            self.requests += 1
            self.delay_s += delay
        return json.dumps({"text": text}).encode("utf-8")


class RemoteServices:
    """The generation service and the correction service of one run.

    The generator refuses (answers empty text) REFUSE_RATE of request ids,
    which the client counts and retries with fresh patterns. The corrector
    answers each sample id with the text last generated for that slot, the
    one ``synthesize`` kept, so relabeling restores every target.
    """

    def __init__(self):
        self._slot_text: dict[str, str] = {}
        self.generator = Service("generator", self._generate)
        self.corrector = Service("corrector", self._correct)

    def _generate(self, payload: dict) -> str:
        request_id = str(payload["id"])
        if _unit("refuse", request_id) < REFUSE_RATE:
            text = ""
        else:
            text = fill_template(payload["template"], request_id)
        # Slots run one attempt at a time, so the last text is the kept one.
        self._slot_text[request_id.split(".")[0]] = text
        return text

    def _correct(self, payload: dict) -> str:
        return self._slot_text.get(str(payload["id"]), payload["text"])

    def slot_text(self, slot: str) -> str | None:
        """The text the generator last returned for a slot, if any."""
        return self._slot_text.get(slot)

    def start(self) -> "RemoteServices":
        self.generator.start()
        self.corrector.start()
        return self

    def stop(self) -> None:
        self.generator.stop()
        self.corrector.stop()

    def env(self) -> dict[str, str]:
        return {
            "GECAUG_GENERATOR_URL": self.generator.url,
            "GECAUG_CORRECTOR_URL": self.corrector.url,
        }

    def reset_counts(self) -> None:
        for service in (self.generator, self.corrector):
            service.requests = 0
            service.delay_s = 0.0
        self._slot_text.clear()
