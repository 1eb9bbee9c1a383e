from __future__ import annotations

import os

import pytest

from kgagent.kg import InputError
from kgagent.llm import (
    CompletionRequest,
    ScriptedProvider,
    ProviderError,
    ScriptEntry,
    load_script,
)

from conftest import QueuedSession, make_request, save_script


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

    def raise_for_status(self) -> None:
        import requests

        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self) -> dict:
        return {"choices": [{"message": {"content": self._content}}]}


class TestHttpChatProvider:
    def _provider(self, outcomes, retries: int = 3):
        from kgagent.llm import HttpChatConfig, HttpChatProvider

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

    def test_transient_500_is_retried(self):
        provider, session = self._provider([FakeResponse(500), FakeResponse(200, "after retry")])
        assert provider.complete(make_request("hi")) == "after retry"
        assert len(session.calls) == 2

    def test_auth_failure_is_not_retried(self):
        provider, session = self._provider([FakeResponse(401)])
        with pytest.raises(ProviderError, match="401"):
            provider.complete(make_request("hi"))
        assert len(session.calls) == 1

    def test_connection_errors_exhaust_retries(self):
        import requests

        outcomes = [requests.ConnectionError("down")] * 3
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
        from kgagent.llm import HttpChatConfig, HttpChatProvider

        session = QueuedSession([BodyResponse(body)] * 3)
        provider = HttpChatProvider(
            HttpChatConfig("http://fake", "model-x", retries=3, backoff=0.0), session=session
        )
        with pytest.raises(ProviderError, match="malformed completion body|content is"):
            provider.complete(make_request("hi"))
        assert len(session.calls) == 1

    def test_body_that_is_not_json_is_not_retried(self, monkeypatch):
        import requests

        from kgagent.llm import HttpChatConfig, HttpChatProvider

        class NotJsonResponse(FakeResponse):
            def json(self):
                raise requests.JSONDecodeError("Expecting value", "<html>", 0)

        sleeps: list[float] = []
        monkeypatch.setattr("kgagent.llm.time.sleep", sleeps.append)
        session = QueuedSession([NotJsonResponse(200)] * 3)
        provider = HttpChatProvider(HttpChatConfig("http://fake", "model-x"), session=session)
        with pytest.raises(ProviderError, match="malformed completion body"):
            provider.complete(make_request("hi"))
        assert (len(session.calls), sleeps) == (1, [])


@pytest.mark.skipif(
    "KGAGENT_LIVE_LLM_ENDPOINT" not in os.environ,
    reason="live smoke test needs KGAGENT_LIVE_LLM_ENDPOINT / KGAGENT_LIVE_LLM_MODEL",
)
def test_live_provider_smoke():
    from kgagent.llm import HttpChatConfig, HttpChatProvider

    provider = HttpChatProvider(
        HttpChatConfig(
            endpoint=os.environ["KGAGENT_LIVE_LLM_ENDPOINT"],
            model=os.environ.get("KGAGENT_LIVE_LLM_MODEL", "gpt-4"),
        )
    )
    response = provider.complete(make_request("Reply with one word."))
    assert response.strip()
