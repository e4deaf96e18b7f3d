"""JSON-over-HTTP client shared by generator and corrector backends.

One policy for every remote call: POST a JSON object, expect a JSON object
back. Timeouts, connection failures, 429 and any 5xx are retried with
exponential backoff (base 0.5 s, factor 2, at most 5 attempts). Other 4xx
and malformed response bodies fail immediately; retrying cannot fix them.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import requests


class TransportError(Exception):
    """A remote call that failed for good, with the attempt count."""

    code = "TRANSPORT"

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (attempts={attempts})")
        self.attempts = attempts


class JsonHttpClient:
    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not endpoint:
            raise ValueError("endpoint is empty")
        # Imported here, not at module top: only the http backends need it,
        # and it is most of the package's import time.
        import requests

        self.endpoint = endpoint
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self._session = session or requests.Session()
        self._retryable = (requests.Timeout, requests.ConnectionError)
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"

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

    def post_text(self, payload: dict) -> str:
        """POST ``payload`` and return the string ``text`` of the reply."""
        body = self.post(payload)
        if not isinstance(body.get("text"), str):
            raise TransportError("response object has no string 'text'", attempts=1)
        return body["text"]

    def post(self, payload: dict) -> dict:
        """POST ``payload`` and return the decoded JSON object."""
        last_reason = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            try:
                resp = self._session.post(
                    self.endpoint,
                    json=payload,
                    headers=self._headers,
                    timeout=self.timeout,
                )
            except self._retryable as exc:
                last_reason = f"connection failure: {exc}"
            else:
                if 200 <= resp.status_code < 300:
                    try:
                        body = resp.json()
                    except ValueError as exc:
                        raise TransportError(
                            f"response is not JSON: {exc}", attempts=attempt
                        ) from exc
                    if not isinstance(body, dict):
                        raise TransportError(
                            "response JSON is not an object", attempts=attempt
                        )
                    return body
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_reason = f"status {resp.status_code}"
                else:
                    raise TransportError(
                        f"status {resp.status_code}", attempts=attempt
                    )
            if attempt < self.max_attempts:
                self._sleep(self.backoff_base * self.backoff_factor ** (attempt - 1))
        raise TransportError(last_reason, attempts=self.max_attempts)
