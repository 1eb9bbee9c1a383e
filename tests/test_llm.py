from __future__ import annotations

import gc
import gzip
import json
import os
import resource
import socket
import ssl
import time
import warnings

import pytest

from kgagent.kg import InputError
from kgagent.llm import (
    CompletionRequest,
    HttpChatConfig,
    HttpChatProvider,
    HttpSession,
    ScriptedProvider,
    ProviderError,
    ScriptEntry,
    _tls_context,
    load_script,
)

from conftest import QueuedSession, json_reply, make_request, save_script


class TestCompletionRequest:
    def test_every_setting_is_required(self):
        with pytest.raises(TypeError, match="temperature.*max_tokens"):
            CompletionRequest("hi")

    def test_validation(self):
        with pytest.raises(ValueError, match="prompt must be non-empty"):
            make_request("")


class TestScriptedProvider:
    def test_lookup_matches_substring(self):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "capital of the prefecture", "Action: Answer")],
            sequential=False,
        )
        request = make_request("What is the capital of the prefecture Tokyo ?")
        assert provider.complete(request) == "Action: Answer"

    def test_lookup_is_not_consuming(self):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "x", "same")], sequential=False
        )
        request = make_request("xyz")
        assert provider.complete(request) == provider.complete(request) == "same"

    def test_lookup_unmatched_raises(self):
        provider = ScriptedProvider([ScriptEntry("exact", "a", "r")], sequential=False)
        with pytest.raises(ProviderError, match="no script entry matches request:\nb"):
            provider.complete(make_request("b"))

    def test_sequential_consumes_in_order(self):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "one", "1"), ScriptEntry("substring", "two", "2")]
        )
        assert provider.complete(make_request("one")) == "1"
        assert provider.complete(make_request("two")) == "2"
        with pytest.raises(ProviderError, match="script exhausted"):
            provider.complete(make_request("two"))

    def test_sequential_mismatch_raises(self):
        provider = ScriptedProvider([ScriptEntry("substring", "one", "1")])
        with pytest.raises(ProviderError, match=r"script entry 0 \(substring 'one'\) does not"):
            provider.complete(make_request("other"))

    def test_sequential_exhausted_raises(self):
        provider = ScriptedProvider([])
        with pytest.raises(ProviderError, match="script exhausted"):
            provider.complete(make_request("x"))

    def test_unknown_match_kind_rejected(self):
        with pytest.raises(ValueError):
            ScriptEntry("regex", "a", "r")


class TestScriptFile:
    def test_save_load_round_trip(self, tmp_path):
        entries = [
            ScriptEntry("substring", "hello", "world"),
            ScriptEntry("exact", "full text", "reply\nwith newline"),
        ]
        path = tmp_path / "script.jsonl"
        save_script(entries, path)
        assert path.read_bytes() == (
            b'{"kind": "substring", "match": "hello", "response": "world"}\n'
            b'{"kind": "exact", "match": "full text", "response": "reply\\nwith newline"}\n'
        )
        assert load_script(path) == entries

    def test_bad_line_raises_with_number(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text('{"match": "a", "response": "b"}\nnot json\n', encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_script(path)

    @pytest.mark.parametrize(
        "record, message",
        [("[1, 2]", "a script entry must be a JSON object, got list"),
         ("5", "a script entry must be a JSON object, got int"),
         ("null", "a script entry must be a JSON object, got null"),
         ('{"match": "a"}', "missing field 'response'"),
         ('{"kind": "exact", "response": "b"}', "missing field 'match'"),
         ('{"match": "Agent", "response": 5}', "must be strings"),
         ('{"match": 5, "response": "x"}', "must be strings")],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "script.jsonl"
        path.write_text('{"match": "a", "response": "b"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(InputError) as excinfo:
            load_script(path)
        assert str(excinfo.value).startswith(f"{path}: line 2: bad script entry: ")
        assert message in str(excinfo.value)

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_bytes(b'{"match": "a", "response": "b"}\n{"match": "\xff", "response": "b"}\n')
        with pytest.raises(InputError) as excinfo:
            load_script(path)
        assert str(excinfo.value) == f"{path}: line 2: not valid UTF-8"

    def test_default_kind_is_substring(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text('{"match": "a", "response": "b"}\n', encoding="utf-8")
        assert load_script(path)[0].kind == "substring"


class FakeResponse:
    def __init__(self, status_code: int, content: str = "ok") -> None:
        self.status_code = status_code
        self.text = "error body"
        self._content = content

    def json(self) -> dict:
        return {"choices": [{"message": {"content": self._content}}]}


class TestHttpChatProvider:
    def _provider(self, outcomes, retries: int = 3):
        session = QueuedSession(outcomes)
        provider = HttpChatProvider(
            HttpChatConfig("http://fake", "model-x", retries=retries, backoff=0.0),
            session=session,
        )
        return provider, session

    def test_success_returns_content(self):
        provider, session = self._provider([FakeResponse(200, "hello")])
        assert provider.complete(make_request("hi")) == "hello"
        assert session.calls[0]["json"]["model"] == "model-x"
        assert session.calls[0]["json"]["temperature"] == 0.4
        assert session.calls[0]["json"]["max_tokens"] == 500

    def test_posts_one_user_message(self):
        provider, session = self._provider([FakeResponse(200, "hello")])
        provider.complete(CompletionRequest("the prompt", 0.7, 32))
        assert session.calls[0]["json"] == {
            "model": "model-x",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.7,
            "max_tokens": 32,
        }

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_transient_status_is_retried(self, status):
        provider, session = self._provider([FakeResponse(status), FakeResponse(200, "after retry")])
        assert provider.complete(make_request("hi")) == "after retry"
        assert len(session.calls) == 2

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_rejected_status_is_sent_once(self, status):
        provider, session = self._provider([FakeResponse(status)] * 3)
        with pytest.raises(ProviderError, match=f"completion rejected with status {status}"):
            provider.complete(make_request("hi"))
        assert len(session.calls) == 1

    def test_connection_errors_exhaust_retries(self):
        outcomes = [ConnectionError("down")] * 3
        provider, session = self._provider(outcomes, retries=3)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            provider.complete(make_request("hi"))
        assert len(session.calls) == 3

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        provider, session = self._provider([FakeResponse(200)])
        provider.complete(make_request("hi"))
        assert session.calls[0]["headers"] == {"Authorization": "Bearer sk-test"}


class BodyResponse(FakeResponse):
    """A 200 response whose JSON body is given verbatim."""

    def __init__(self, body) -> None:
        super().__init__(200)
        self._body = body

    def json(self):
        return self._body


class TestMalformedCompletionBody:
    @pytest.mark.parametrize(
        "body",
        [{}, {"choices": []}, {"choices": [{}]}, {"choices": [{"message": None}]},
         {"choices": [{"message": {"content": None}}]}, ["choices"]],
    )
    def test_maps_to_provider_error_without_retry(self, body):
        session = QueuedSession([BodyResponse(body)] * 3)
        provider = HttpChatProvider(
            HttpChatConfig("http://fake", "model-x", retries=3, backoff=0.0), session=session
        )
        with pytest.raises(ProviderError, match="malformed completion body|content is"):
            provider.complete(make_request("hi"))
        assert len(session.calls) == 1

    def test_body_that_is_not_json_is_not_retried(self, sleeps):
        class NotJsonResponse(FakeResponse):
            def json(self):
                raise json.JSONDecodeError("Expecting value", "<html>", 0)

        session = QueuedSession([NotJsonResponse(200)] * 3)
        provider = HttpChatProvider(HttpChatConfig("http://fake", "model-x"), session=session)
        with pytest.raises(ProviderError, match="malformed completion body"):
            provider.complete(make_request("hi"))
        assert (len(session.calls), sleeps) == (1, [])


def completion(content: str = "ok"):
    """A LoopbackServer reply holding one chat completion."""
    return json_reply({"choices": [{"message": {"content": content}}]})


class TestHttpSession:
    """The live clients' transport, against a server on 127.0.0.1."""

    def test_requests_share_one_kept_alive_connection(self, loopback, http_session, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        server = loopback(lambda handler, body: completion(body["messages"][0]["content"]))
        provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"), session=http_session)
        assert provider.complete(make_request("one")) == "one"
        started = time.monotonic()
        assert provider.complete(make_request("two")) == "two"
        assert time.monotonic() - started < 0.5  # the check before reuse does not wait
        (first, path, headers, body), (second, *_) = server.seen
        assert first == second
        assert path == "/v1/chat/completions"
        assert body["model"] == "model-x"
        assert headers["Content-Type"] == "application/json"
        assert headers["Accept-Encoding"] == "gzip"
        assert headers["Authorization"] == "Bearer sk-test"

    def test_a_connection_the_server_closed_is_replaced_without_a_retry(
        self, loopback, http_session, sleeps
    ):
        def respond(handler, body):
            handler.close_connection = True  # after the reply, without saying so
            return completion(body["messages"][0]["content"])

        server = loopback(respond)
        provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"), session=http_session)
        assert provider.complete(make_request("one")) == "one"
        assert server.hung_up.acquire(timeout=10)
        assert provider.complete(make_request("two")) == "two"
        (first, *_), (second, *_) = server.seen
        assert (first != second, sleeps) == (True, [])

    def test_a_connection_on_a_descriptor_past_1023_is_reused(self, loopback, http_session):
        # select() cannot watch a descriptor >= FD_SETSIZE (1024); the check before reuse must
        limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        free = [fd for fd in range(1024, min(limit, 4096)) if not _is_open(fd)]
        if not free:
            pytest.skip(f"no free descriptor above 1023 under a limit of {limit}")
        server = loopback(lambda handler, body: completion(body["messages"][0]["content"]))
        provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"), session=http_session)
        assert provider.complete(make_request("one")) == "one"
        [[connection]] = http_session._idle.values()
        os.dup2(connection.sock.fileno(), free[0])
        connection.sock.close()
        connection.sock = socket.socket(fileno=free[0])
        assert provider.complete(make_request("two")) == "two"
        (first, *_), (second, *_) = server.seen
        assert first == second

    def test_the_trust_store_is_loaded_once_and_for_https_only(self, loopback, monkeypatch):
        contexts = []
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda: contexts.append(create()) or contexts[-1])
        _tls_context.cache_clear()
        server = loopback(lambda handler, body: completion())
        plain, secure = HttpSession(), HttpSession()
        try:
            provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"), session=plain)
            assert provider.complete(make_request("hi")) == "ok"
            assert contexts == []
            https = server.url.replace("http:", "https:")
            for session in (plain, secure):  # the server speaks no TLS: the handshake fails
                config = HttpChatConfig(https, "model-x", retries=1)
                with pytest.raises(ProviderError, match="after 1 attempts: POST .*SSL"):
                    HttpChatProvider(config, session=session).complete(make_request("hi"))
            assert len(contexts) == 1
        finally:
            plain.close()
            secure.close()

    def test_a_gzip_reply_is_decoded(self, loopback, http_session):
        content = gzip.compress(b'{"choices": [{"message": {"content": "unzipped"}}]}')
        server = loopback(lambda handler, body: (200, content, {"Content-Encoding": "gzip"}))
        provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"), session=http_session)
        assert provider.complete(make_request("hi")) == "unzipped"

    def test_a_read_timeout_is_retried(self, loopback, http_session, sleeps):
        def respond(handler, body):
            if len(handler.server.seen) == 1:
                handler.server.release.wait(10)  # stalls until the server stops
                return None
            return completion("second attempt")

        server = loopback(respond)
        config = HttpChatConfig(server.url, "model-x", timeout=0.2, backoff=0.125)
        provider = HttpChatProvider(config, session=http_session)
        assert provider.complete(make_request("hi")) == "second attempt"
        assert (len(server.seen), sleeps) == (2, [0.125])

    def test_a_refused_port_fails_after_every_attempt_on_schedule(self, http_session, sleeps):
        with socket.socket() as unused:  # bound, never listening
            unused.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{unused.getsockname()[1]}/v1"
            config = HttpChatConfig(url, "model-x", retries=3, backoff=0.25)
            provider = HttpChatProvider(config, session=http_session)
            with pytest.raises(ProviderError, match="after 3 attempts: POST .*ConnectionRefused"):
                provider.complete(make_request("hi"))
        assert sleeps == [0.25, 0.5]

    def test_a_client_dropped_unclosed_closes_its_connection(self, loopback):
        server = loopback(lambda handler, body: completion())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            provider = HttpChatProvider(HttpChatConfig(server.url, "model-x"))  # its own session
            assert provider.complete(make_request("hi")) == "ok"
            del provider
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert server.hung_up.acquire(timeout=10)

    def test_a_url_that_is_not_http_is_a_provider_error(self, http_session):
        config = HttpChatConfig("ftp://127.0.0.1/v1", "model-x", retries=2, backoff=0.0)
        provider = HttpChatProvider(config, session=http_session)
        with pytest.raises(ProviderError, match="after 2 attempts: .* not an http or https URL"):
            provider.complete(make_request("hi"))


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.skipif(
    "KGAGENT_LIVE_LLM_ENDPOINT" not in os.environ,
    reason="live smoke test needs KGAGENT_LIVE_LLM_ENDPOINT / KGAGENT_LIVE_LLM_MODEL",
)
def test_live_provider_smoke():
    provider = HttpChatProvider(
        HttpChatConfig(
            endpoint=os.environ["KGAGENT_LIVE_LLM_ENDPOINT"],
            model=os.environ.get("KGAGENT_LIVE_LLM_MODEL", "gpt-4"),
        )
    )
    response = provider.complete(make_request("Reply with one word."))
    assert response.strip()
