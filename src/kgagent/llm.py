"""Language-model provider contract: a live HTTP chat client, the request
policy (post_json) and the transport (HttpSession) that it shares with the
HTTP embedder, and a deterministic scripted provider for replayable tests."""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass
from functools import cache
from json import dumps, loads
from pathlib import Path
from typing import Iterable, Protocol
from urllib.parse import urlsplit

from .kg import load_json_records


class ProviderError(RuntimeError):
    """A model or embedding provider failed: a live request was rejected or
    kept failing, a reply was malformed, or a script had no entry for a
    request."""


@dataclass
class CompletionRequest:
    """One flat user prompt, with every sampling setting; prompts are never
    split across roles."""

    prompt: str
    temperature: float
    max_tokens: int

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")

    def text(self) -> str:
        return self.prompt


class LLMProvider(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


@dataclass(frozen=True)
class ScriptEntry:
    kind: str  # "substring" | "exact"
    match: str
    response: str

    def __post_init__(self) -> None:
        if self.kind not in ("substring", "exact"):
            raise ValueError(f"unknown match kind {self.kind!r}")
        if not isinstance(self.match, str) or not isinstance(self.response, str):
            raise ValueError("match and response must be strings")

    def matches(self, text: str) -> bool:
        if self.kind == "exact":
            return text == self.match
        return self.match in text


class ScriptedProvider:
    """Deterministic canned responses for golden-trace tests.

    sequential=True replays entries strictly in order, asserting each
    request matches the next entry. sequential=False answers with the first
    matching entry and never consumes anything.
    """

    def __init__(self, entries: Iterable[ScriptEntry], sequential: bool = True) -> None:
        self.entries = list(entries)
        self.sequential = sequential
        self._cursor = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> str:
        text = request.text()
        if not self.sequential:
            for entry in self.entries:
                if entry.matches(text):
                    return entry.response
            raise ProviderError(f"no script entry matches request:\n{text[:400]}")
        with self._lock:
            if self._cursor >= len(self.entries):
                raise ProviderError("script exhausted")
            entry = self.entries[self._cursor]
            if not entry.matches(text):
                raise ProviderError(
                    f"script entry {self._cursor} ({entry.kind} {entry.match!r}) "
                    f"does not match request:\n{text[:400]}"
                )
            self._cursor += 1
            return entry.response


def load_script(path: str | Path) -> list[ScriptEntry]:
    """Read a script: one JSON object per line with kind/match/response.

    Each line is decoded as UTF-8 on its own; a line that is not UTF-8 or
    not a valid entry raises InputError ``<path>: line N: <message>`` (see
    load_json_records).
    """
    return load_json_records(path, "script entry", _script_entry)


def _script_entry(record: dict) -> ScriptEntry:
    return ScriptEntry(record.get("kind", "substring"), record["match"], record["response"])


@dataclass
class HttpChatConfig:
    """One OpenAI-style endpoint and its request policy (see post_json)."""

    endpoint: str
    model: str
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    retries: int = 3
    backoff: float = 1.0


class HttpChatProvider:
    """OpenAI-style /chat/completions client with retry on transient errors."""

    def __init__(self, config: HttpChatConfig, session=None) -> None:
        self.config = config
        self._session = session or HttpSession()

    def complete(self, request: CompletionRequest) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        body = post_json(self._session, self.config, "chat/completions", payload, "completion")
        return _completion_content(body)


def post_json(session, config: HttpChatConfig, path: str, payload: dict, noun: str):
    """POST payload to config.endpoint/path and return the decoded JSON reply.

    The bearer key comes from the environment variable config.api_key_env.
    Connection errors and 408/429/5xx replies are retried with exponential
    backoff, config.retries attempts in all; any other 4xx, or a reply whose
    body is not JSON, raises ProviderError at once, as does the last failed
    attempt. Every HTTP request of the live providers goes through here.
    """
    key = os.environ.get(config.api_key_env, "")
    last_error: Exception | None = None
    for attempt in range(config.retries):
        try:
            response = session.post(
                f"{config.endpoint.rstrip('/')}/{path}",
                json=payload,
                headers={"Authorization": f"Bearer {key}"} if key else {},
                timeout=config.timeout,
            )
            if response.status_code in (408, 429) or response.status_code >= 500:
                raise ConnectionError(f"retryable status {response.status_code}")
        except OSError as exc:
            last_error = exc
            if attempt + 1 < config.retries:
                time.sleep(config.backoff * (2**attempt))
            continue
        if response.status_code >= 400:  # auth/validation: do not retry
            raise ProviderError(
                f"{noun} rejected with status {response.status_code}: {response.text[:200]}"
            )
        # decoded outside the retry path: a body that is not JSON is not transient
        try:
            return response.json()
        except ValueError as exc:
            raise ProviderError(f"malformed {noun} body: {exc}") from exc
    message = f"{noun} failed after {config.retries} attempts: {last_error}"
    raise ProviderError(message) from last_error


@dataclass(frozen=True)
class HttpReply:
    """A whole HTTP reply, as post_json reads it."""

    status_code: int
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", "replace")

    def json(self):
        return loads(self.content)


class HttpSession:
    """JSON POSTs over kept-alive HTTP/1.1 connections: the live clients'
    transport when they are given no session of their own.

    Each host has a lock-guarded pool of idle connections. A request takes
    one (or opens one) and gives it back once its reply is read, so a thread
    holds a connection for one request and no two threads share one. An idle
    connection whose socket is readable was closed by the server, and is
    dropped before reuse. TLS is verified against the system's trust store,
    which is loaded on the first https connection.
    gzip replies are asked for and decoded. Proxy variables, .netrc and
    redirects are not honoured. Any transport failure raises the builtin
    ConnectionError.
    """

    def __init__(self) -> None:
        # imported here, so that a run over scripted or fake providers never
        # loads them
        import gzip
        import http.client
        import select
        import zlib

        self._openers = {
            "http": http.client.HTTPConnection,
            "https": lambda host, timeout: http.client.HTTPSConnection(
                host, timeout=timeout, context=_tls_context()
            ),
        }
        # zlib.error and EOFError: a corrupt or truncated gzip body
        self._failures = (OSError, http.client.HTTPException, zlib.error, EOFError)
        self._gunzip = gzip.decompress
        # poll, not select: select cannot watch a descriptor >= FD_SETSIZE (1024)
        self._poll = select.poll
        self._readable = select.POLLIN
        self._idle: dict[tuple[str, str], list] = {}
        self._lock = threading.Lock()
        # a session dropped without close() leaves no socket open
        weakref.finalize(self, _close_idle, self._idle)

    def post(self, url: str, json=None, headers=None, timeout: float | None = None) -> HttpReply:
        scheme, host, path, query, _ = urlsplit(url)
        if scheme not in self._openers:
            raise ConnectionError(f"POST {url}: not an http or https URL")
        target = (path or "/") + (f"?{query}" if query else "")
        body = dumps(json).encode("utf-8")
        headers = {"Content-Type": "application/json", "Accept-Encoding": "gzip", **(headers or {})}
        connection = None
        try:
            connection = self._take(scheme, host, timeout)
            connection.request("POST", target, body, headers)
            response = connection.getresponse()
            content = response.read()
            if response.getheader("Content-Encoding", "").lower() == "gzip":
                content = self._gunzip(content)
        except self._failures as exc:
            if connection is not None:
                connection.close()
            raise ConnectionError(f"POST {url}: {exc!r}") from exc
        self._give(scheme, host, connection)
        return HttpReply(response.status, content)

    def _take(self, scheme: str, host: str, timeout: float | None):
        """An idle connection to host[:port] that the server has not closed, or a new one."""
        while True:
            with self._lock:
                idle = self._idle.get((scheme, host))
                connection = idle.pop() if idle else None
            if connection is None:
                return self._openers[scheme](host, timeout=timeout)
            # an idle socket turns readable when the server closes it (or sends
            # bytes that no request asked for): either way it cannot be reused;
            # poll also reports a hang-up or an error, whatever it was asked
            poller = self._poll()
            poller.register(connection.sock, self._readable)
            if not poller.poll(0):
                connection.sock.settimeout(timeout)
                return connection
            connection.close()

    def _give(self, scheme: str, host: str, connection) -> None:
        if connection.sock is None:  # the reply announced a close, and http.client closed it
            return
        with self._lock:
            self._idle.setdefault((scheme, host), []).append(connection)

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            _close_idle(self._idle)


@cache
def _tls_context():
    """The system trust store, loaded on the first https connection and
    shared by every session."""
    import ssl

    return ssl.create_default_context()


def _close_idle(idle: dict[tuple[str, str], list]) -> None:
    for pool in idle.values():
        for connection in pool:
            connection.close()
    idle.clear()


def _completion_content(body) -> str:
    """The reply text of a chat completion body; a malformed body is not retried."""
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderError(f"malformed completion body: {exc!r}") from exc
    if not isinstance(content, str):
        raise ProviderError(f"completion content is {type(content).__name__}, not str")
    return content
