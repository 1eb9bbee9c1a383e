from __future__ import annotations

import random
import re
import string
import struct
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from kgagent.embedding import (
    DeterministicEmbedder,
    EmbeddingCache,
    EmbeddingError,
    combined_text,
    cosine,
    embed_texts,
    score_candidate,
)
from kgagent.llm import HttpChatConfig, ProviderError

from conftest import QueuedSession

# what the cache says of a vector that no score may take, at put_many and at load
UNSCORABLE = "a vector that is empty, over 2**23 long or has a component beyond 2**500"


def mp_cosine(a, b) -> float:
    """Arbitrary-precision dot/norm oracle."""
    mp.dps = 60
    dot = sum(mpf(x) * mpf(y) for x, y in zip(a, b))
    norms = mp_sqrt(sum(mpf(x) ** 2 for x in a)) * mp_sqrt(sum(mpf(y) ** 2 for y in b))
    return float(dot / norms)


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == 1.0

    def test_orthogonal(self):
        assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_against_high_precision_oracle(self):
        # frozen from the mpmath oracle below
        assert cosine((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == pytest.approx(
            0.9746318461970763, abs=1e-12
        )
        assert cosine((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == pytest.approx(
            mp_cosine((1, 2, 3), (4, 5, 6)), abs=1e-12
        )

    def test_random_vectors_against_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            a = [rng.uniform(-5, 5) for _ in range(12)]
            b = [rng.uniform(-5, 5) for _ in range(12)]
            assert cosine(a, b) == pytest.approx(mp_cosine(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(EmbeddingError):
            cosine((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_zero_norm(self):
        with pytest.raises(EmbeddingError):
            cosine((0.0, 0.0), (1.0, 2.0))

    def test_self_similarity(self):
        rng = random.Random(23)
        for _ in range(50):
            a = [rng.uniform(-3, 3) for _ in range(8)]
            if all(x == 0 for x in a):
                continue
            assert abs(cosine(a, a) - 1.0) < 1e-9

    def test_scale_invariance(self):
        rng = random.Random(29)
        for _ in range(50):
            a = tuple(rng.uniform(-3, 3) for _ in range(8))
            b = tuple(rng.uniform(-3, 3) for _ in range(8))
            alpha, beta = rng.uniform(0.01, 100), rng.uniform(0.01, 100)
            scaled = cosine(tuple(alpha * x for x in a), tuple(beta * x for x in b))
            assert abs(scaled - cosine(a, b)) < 1e-9


class TestDeterministicProvider:
    def test_same_input_same_vector(self):
        provider = DeterministicEmbedder(seed=3, dimension=16)
        assert provider.embed("capital Shinjuku") == provider.embed("capital Shinjuku")

    def test_different_seed_different_vector(self):
        a = DeterministicEmbedder(seed=1, dimension=16).embed("x")
        b = DeterministicEmbedder(seed=2, dimension=16).embed("x")
        assert a != b

    def test_unit_norm(self):
        provider = DeterministicEmbedder(seed=5, dimension=48)
        for text in ("", "a", "tokyo", "множество", "a b c d"):
            vector = provider.embed(text)
            norm_sq = sum(x * x for x in vector)
            assert abs(norm_sq - 1.0) < 1e-9

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            DeterministicEmbedder(seed=0, dimension=1)

    def test_seed_must_fit_a_signed_64_bit_integer(self):
        for seed in (-(2**63), 2**63 - 1):
            DeterministicEmbedder(seed=seed, dimension=64)
        for seed in (-(2**63) - 1, 2**63):
            with pytest.raises(ValueError, match="seed must fit a signed 64-bit integer"):
                DeterministicEmbedder(seed=seed, dimension=64)

    def test_pairwise_cosines_concentrate_near_zero(self):
        # thresholds frozen from an oracle run over this exact configuration
        provider = DeterministicEmbedder(seed=13, dimension=16)
        rng = random.Random(31)
        texts = [f"text-{rng.randrange(10**9)}-{i}" for i in range(1000)]
        vectors = [provider.embed(t) for t in texts]

        import numpy as np

        matrix = np.array(vectors)
        sims = matrix @ matrix.T
        pairwise = sims[np.triu_indices(len(texts), k=1)]
        assert abs(float(pairwise.mean())) < 0.005
        assert 0.15 < float(pairwise.std()) < 0.35

    def test_known_frozen_vector_prefix(self):
        # guards cross-run / cross-platform stability of the hash expansion
        vector = DeterministicEmbedder(seed=0, dimension=4).embed("probe")
        assert vector == (
            0.2743423640199278,
            0.20901354851186174,
            0.8140626762211484,
            0.4672810321702549,
        )


class TestEmbedTextProviderFailure:
    def test_provider_exception_maps_once_without_retry(self):
        class FailingProvider:
            dimension = 3
            calls = 0

            def embed(self, text: str):
                self.calls += 1
                raise RuntimeError("boom")

        provider = FailingProvider()
        with pytest.raises(ProviderError, match="boom"):
            embed_texts(["x"], provider, EmbeddingCache())
        assert provider.calls == 1


class TestScoreCandidate:
    def test_combined_text_single_space(self):
        assert combined_text("capital", "Shinjuku") == "capital Shinjuku"

    def test_reproducible_against_recomputation(self, embedder):
        question_vector = embedder.embed("What is the capital of the prefecture Tokyo ?")
        score = score_candidate(question_vector, "capital", "Shinjuku", embedder, EmbeddingCache())
        recomputed = cosine(question_vector, embedder.embed("capital Shinjuku"))
        assert score == recomputed

    def test_cache_path_identical(self, embedder):
        cache = EmbeddingCache()
        question_vector = embedder.embed("q")
        first = score_candidate(question_vector, "capital", "Shinjuku", embedder, cache)
        second = score_candidate(question_vector, "capital", "Shinjuku", embedder, cache)
        assert first == second

    def test_swapped_labels_change_score(self, embedder):
        question_vector = embedder.embed("q")
        cache = EmbeddingCache()
        assert score_candidate(
            question_vector, "capital", "Shinjuku", embedder, cache
        ) != score_candidate(question_vector, "Shinjuku", "capital", embedder, cache)


class FakeEmbeddingSession:
    def __init__(self, vectors) -> None:
        self.vectors = list(vectors)
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        vector = self.vectors.pop(0)

        class Response:
            status_code = 200

            @staticmethod
            def raise_for_status() -> None:
                pass

            @staticmethod
            def json() -> dict:
                return {"data": [{"index": 0, "embedding": vector}]}

        return Response()


class TestHttpEmbedder:
    @pytest.mark.parametrize(
        "reply, vector",
        [([1.0, 2.0, 3.0], (1.0, 2.0, 3.0)), ([1, 2.5], (1.0, 2.5))],
        ids=["floats", "mixed-int-and-float"],
    )
    def test_embeds_a_reply_as_floats_and_keeps_no_dimension(self, reply, vector):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([reply, [1.0, 2.0, 3.0, 4.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        got = provider.embed("text")
        assert got == vector and {*map(type, got)} == {float}
        assert session.calls[0]["json"] == {"model": "embed-x", "input": ["text"]}
        assert provider.embed("other") == (1.0, 2.0, 3.0, 4.0)  # the cache decides dimensions

    def test_dimension_change_rejected(self):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([[1.0, 2.0], [1.0, 2.0, 3.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        cache = EmbeddingCache()
        embed_texts(["a"], provider, cache)
        with pytest.raises(EmbeddingError, match="holds a vector of dimension 3, not 2$"):
            embed_texts(["b"], provider, cache)
        assert len(cache) == 1

    def test_empty_first_vector_does_not_fix_the_dimension(self):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([[], [1.0, 2.0], [1.0, 2.0, 3.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        cache = EmbeddingCache()
        with pytest.raises(EmbeddingError, match=f"holds {re.escape(UNSCORABLE)}$"):
            embed_texts(["a"], provider, cache)
        assert embed_texts(["b"], provider, cache) == [(1.0, 2.0)]
        with pytest.raises(EmbeddingError, match="holds a vector of dimension 3, not 2$"):
            embed_texts(["c"], provider, cache)


    @pytest.mark.parametrize(
        "vector",
        [[1e200, 1e200], [1e200, -1e200], [-(2.0**500) * (1 + 2**-52), 0.0],
         [float("nan"), 1.0], [1.0, float("-inf")]],
        ids=["huge", "huge-mixed-signs", "past-the-bound", "nan", "inf"],
    )
    def test_a_component_that_could_overflow_a_score_is_refused(self, vector):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([vector, [2.0**500, -(2.0**500)]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        cache = EmbeddingCache()
        with pytest.raises(EmbeddingError, match="component beyond 2\\*\\*500"):
            embed_texts(["a"], provider, cache)
        assert embed_texts(["b"], provider, cache) == [(2.0**500, -(2.0**500))]  # the bound passes

    def test_more_components_than_a_score_can_sum_are_refused(self, monkeypatch):
        from kgagent import embedding

        monkeypatch.setattr(embedding, "_MAX_DIMENSION", 2)
        session = FakeEmbeddingSession([[1.0, 0.0, 0.0], [1.0, 0.0]])
        provider = embedding.HttpEmbedder("http://fake", "embed-x", session=session)
        cache = EmbeddingCache()
        with pytest.raises(EmbeddingError, match="over 2\\*\\*23 long"):
            embed_texts(["a"], provider, cache)
        # a refused reply fixes no dimension, so the next correct one is taken
        assert embed_texts(["b"], provider, cache) == [(1.0, 0.0)]


class QueuedResponse:
    def __init__(self, status_code: int, body=None) -> None:
        self.status_code = status_code
        self.text = "error body"
        self._body = body

    def json(self):
        return self._body


class TestHttpEmbedderRequestPolicy:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        waits: list[float] = []
        monkeypatch.setattr("kgagent.llm.time.sleep", waits.append)
        return waits

    def _embed(self, outcomes):
        from kgagent.embedding import HttpEmbedder

        session = QueuedSession(outcomes)
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        return session, lambda: embed_texts(["text"], provider, EmbeddingCache())[0]

    def test_transient_500_is_retried(self, sleeps):
        body = {"data": [{"index": 0, "embedding": [1.0, 2.0, 2.0]}]}
        session, embed = self._embed([QueuedResponse(500), QueuedResponse(200, body)])
        assert embed() == (1.0, 2.0, 2.0)
        assert (len(session.calls), sleeps) == (2, [0.5])
        # the embedder has no timeout of its own: each post takes HttpChatConfig's
        assert {call["timeout"] for call in session.calls} == {HttpChatConfig.timeout}

    def test_connection_errors_exhaust_attempts_on_schedule(self, sleeps):
        import requests

        session, embed = self._embed([requests.ConnectionError("down")] * 3)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            embed()
        assert (len(session.calls), sleeps) == (3, [0.5, 1.0])

    def test_rejected_request_is_not_retried(self, sleeps):
        session, embed = self._embed([QueuedResponse(401)] * 3)
        with pytest.raises(ProviderError, match="rejected with status 401"):
            embed()
        assert (len(session.calls), sleeps) == (1, [])

    @pytest.mark.parametrize(
        "body",
        [{}, {"data": []}, {"data": [{}]}, {"data": [{"index": 0, "embedding": [1.0, "x"]}]},
         {"data": [{"index": 0, "embedding": "123"}]}, ["data"],
         {"data": [{"index": 0, "embedding": [True, 0.5]}]}],
    )
    def test_malformed_body_is_not_retried(self, sleeps, body):
        session, embed = self._embed([QueuedResponse(200, body)] * 3)
        with pytest.raises(ProviderError, match="malformed embedding body|not a list of numbers"):
            embed()
        assert (len(session.calls), sleeps) == (1, [])

    def test_body_that_is_not_json_is_not_retried(self, sleeps):
        import requests

        class NotJsonResponse(QueuedResponse):
            def json(self):
                raise requests.JSONDecodeError("Expecting value", "<html>", 0)

        session, embed = self._embed([NotJsonResponse(200)] * 3)
        with pytest.raises(ProviderError, match="malformed embedding body"):
            embed()
        assert (len(session.calls), sleeps) == (1, [])


class TestCache:
    def test_round_trip_bit_identical(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            texts = ["alpha", "beta gamma", "münchen \t tab"]
            originals = {t: embed_texts([t], embedder, cache)[0] for t in texts}
        with EmbeddingCache(path) as reloaded:
            for text, vector in originals.items():
                assert reloaded.get(text) == vector

    def test_append_only_across_sessions(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_texts(["one"], embedder, cache)
        with EmbeddingCache(path) as cache:
            embed_texts(["two"], embedder, cache)
            assert cache.get("one") is not None and cache.get("two") is not None
        with EmbeddingCache(path) as cache:
            assert len(cache) == 2

    def test_truncated_file_drops_the_torn_record(self, tmp_path, embedder, caplog):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_texts(["one"], embedder, cache)
        whole = path.read_bytes()
        with EmbeddingCache(path) as cache:
            embed_texts(["two"], embedder, cache)
        path.write_bytes(path.read_bytes()[:-3])
        with caplog.at_level("WARNING", logger="kgagent.embedding"):
            with EmbeddingCache(path) as cache:
                assert cache.get("one") is not None and cache.get("two") is None
        assert caplog.messages == [
            f"dropped a truncated cache record at byte {len(whole)} in {path}"
        ]
        assert path.read_bytes() == whole

    @settings(max_examples=20, deadline=None)
    @given(texts=st.lists(st.text(max_size=10), min_size=1, max_size=4, unique=True))
    def test_a_cut_anywhere_in_the_last_record_loses_only_that_record(self, texts):
        embedder = DeterministicEmbedder(seed=7, dimension=3)
        vectors = {text: embedder.embed(text) for text in texts + ["after"]}
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "cache.bin"
            with EmbeddingCache(path) as cache:
                cache.put_many((text, vectors[text]) for text in texts)
            whole = path.read_bytes()
            last = len(whole) - (8 + len(texts[-1].encode("utf-8")) + 8 * 3)
            for cut in range(last + 1, len(whole)):
                path.write_bytes(whole[:cut])
                with EmbeddingCache(path) as cache:
                    assert len(cache) == len(texts) - 1 and cache.get(texts[-1]) is None
                    assert path.read_bytes() == whole[:last]
                    cache.put_many((text, vectors[text]) for text in [texts[-1], "after"])
                with EmbeddingCache(path) as reloaded:
                    assert len(reloaded) == len(vectors)
                    for text, vector in vectors.items():
                        assert packed(reloaded.get(text)) == packed(vector)
                assert path.read_bytes()[: len(whole)] == whole

    def test_undecodable_text_raises_with_offset_and_path(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_texts(["one"], embedder, cache)
            embed_texts(["two"], embedder, cache)
        data = bytearray(path.read_bytes())
        second = len(data) // 2  # both records have the same length
        data[second + 4] = 0xFF  # first byte of the second record's text
        path.write_bytes(bytes(data))
        with pytest.raises(EmbeddingError, match=f"byte {second + 4} in .*cache.bin"):
            EmbeddingCache(path)

    @pytest.mark.parametrize(
        "bad, refusal",
        [((float("nan"), 1.0), UNSCORABLE), ((1.0, float("-inf")), UNSCORABLE),
         ((1e300, 0.0), UNSCORABLE), ((), UNSCORABLE),
         ((1.0, 2.0, 3.0), "a vector of dimension 3, not 2")],
        ids=["nan", "inf", "1e300", "dimension-0", "another-dimension"],
    )
    def test_a_record_outside_the_bound_raises_and_leaves_the_file(self, tmp_path, bad, refusal):
        path = tmp_path / "cache.bin"
        with open(path, "wb") as handle:  # put_many would refuse the bad record
            for text, vector in [("one", (1.0, 2.0)), ("bad", bad), ("two", (3.0, 4.0))]:
                frozen_put(handle, text, vector)
        whole = path.read_bytes()
        offset = 4 + len("one") + 4 + 8 * 2  # the second record's first byte
        message = f"the record at byte {offset} in {path} holds {refusal}"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            EmbeddingCache(path)
        assert path.read_bytes() == whole

    def test_unpersisted_cache_works(self, embedder):
        cache = EmbeddingCache()
        embed_texts(["one"], embedder, cache)
        assert len(cache) == 1


def frozen_deterministic_embed(seed: int, dimension: int, text: str):
    """DeterministicEmbedder.embed as first written: sliced int.from_bytes per component."""
    import hashlib
    from math import fsum, sqrt

    key = seed.to_bytes(8, "little", signed=True)
    data = text.encode("utf-8")
    components: list[float] = []
    counter = 0
    while len(components) < dimension:
        digest = hashlib.blake2b(
            data, key=key + counter.to_bytes(4, "little"), digest_size=64
        ).digest()
        for offset in range(0, 64, 8):
            components.append(
                float(int.from_bytes(digest[offset : offset + 8], "little", signed=True))
            )
            if len(components) == dimension:
                break
        counter += 1
    norm = sqrt(fsum(x * x for x in components))
    return tuple(x / norm for x in components)


class TableProvider:
    """Returns fixed vectors per text and records every embed call."""

    def __init__(self, vectors: dict) -> None:
        self.vectors = vectors
        self.dimension = len(next(iter(vectors.values())))
        self.calls: list[str] = []

    def embed(self, text: str):
        self.calls.append(text)
        return self.vectors[text]


class TestQuestionScorer:
    def test_bit_identical_to_cosine_on_non_unit_vectors(self):
        from kgagent.embedding import QuestionScorer

        rng = random.Random(101)
        for dimension in (2, 5, 32):
            vectors = {
                text: tuple(rng.uniform(-7, 7) for _ in range(dimension))
                for text in ["question"] + [f"text {i}" for i in range(40)]
            }
            scorer = QuestionScorer("question", TableProvider(vectors), EmbeddingCache())
            for text in vectors:
                assert scorer.score_many([text])[0] == cosine(vectors["question"], vectors[text])

    def test_bit_identical_to_score_candidate(self, embedder):
        from kgagent.embedding import QuestionScorer

        question = "What is the capital of the prefecture Tokyo ?"
        scorer = QuestionScorer(question, embedder, EmbeddingCache())
        question_vector = embedder.embed(question)
        for relation, tail in [("capital", "Shinjuku"), ("country", "Japan"), ("a", "")]:
            assert scorer.score_many([combined_text(relation, tail)])[0] == score_candidate(
                question_vector, relation, tail, embedder, EmbeddingCache()
            )

    def test_each_text_embedded_once_question_first_and_lazily(self):
        from kgagent.embedding import QuestionScorer

        vectors = {"q": (1.0, 2.0), "a": (3.0, -1.0), "b": (0.5, 0.5)}
        provider = TableProvider(vectors)
        scorer = QuestionScorer("q", provider, EmbeddingCache())
        assert provider.calls == []
        first = [scorer.score_many([text])[0] for text in ("a", "b", "a", "b")]
        assert provider.calls == ["q", "a", "b"]
        assert first[0] == first[2] and first[1] == first[3]
        assert scorer.question_vector() == (1.0, 2.0)
        assert provider.calls == ["q", "a", "b"]

    def test_dimension_mismatch_raises(self):
        from kgagent.embedding import QuestionScorer

        provider = TableProvider({"q": (1.0, 2.0), "a": (1.0, 2.0, 3.0)})
        with pytest.raises(EmbeddingError):
            QuestionScorer("q", provider, EmbeddingCache()).score_many(["a"])

    def test_zero_norm_raises(self):
        from kgagent.embedding import QuestionScorer

        provider = TableProvider({"q": (1.0, 2.0), "zero": (0.0, 0.0), "zq": (0.0, 0.0)})
        with pytest.raises(EmbeddingError):
            QuestionScorer("q", provider, EmbeddingCache()).score_many(["zero"])
        with pytest.raises(EmbeddingError):
            QuestionScorer("zq", provider, EmbeddingCache()).score_many(["q"])


def frozen_texts() -> list[str]:
    """Empty, Cyrillic, CJK, long and random printable ASCII texts."""
    rng = random.Random(41)
    texts = ["", "probe", "capital Shinjuku", "множество", "東京都 首都", "a b c d" * 40, "x" * 280]
    for _ in range(60):
        texts.append("".join(rng.choices(string.printable, k=rng.randrange(1, 90))))
    return texts


def packed(vector) -> bytes:
    """The float64 bytes of a vector, so that -0.0 and 0.0 differ."""
    return struct.pack(f"<{len(vector)}d", *vector)


class TestDeterministicEmbedderFrozen:
    PAIRS = [(seed, dimension) for seed in (-3, 0, 1) for dimension in (2, 7, 8, 9, 64, 256)] + [
        (3, 13), (-5, 100), (2, 2), (2**63 - 1, 64), (-(2**63), 9),
    ]

    @pytest.mark.parametrize("seed, dimension", PAIRS)
    def test_matches_frozen_loop(self, seed, dimension):
        provider = DeterministicEmbedder(seed=seed, dimension=dimension)
        for text in frozen_texts():
            expected = frozen_deterministic_embed(seed, dimension, text)
            assert packed(provider.embed(text)) == packed(expected)

    def test_one_embedder_shared_by_threads_matches_a_serial_run(self):
        from concurrent.futures import ThreadPoolExecutor

        texts = frozen_texts() * 4
        serial = [packed(DeterministicEmbedder(seed=3, dimension=64).embed(t)) for t in texts]
        shared = DeterministicEmbedder(seed=3, dimension=64)

        def embed_all(offset: int) -> list[bytes]:
            rotated = texts[offset:] + texts[:offset]  # threads hash different texts at once
            vectors = [packed(shared.embed(text)) for text in rotated]
            return vectors[len(texts) - offset :] + vectors[: len(texts) - offset]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside embed too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(embed_all, [0, 17, 101, 173], timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4


class ListEmbeddingSession:
    """/embeddings server over a table: answers a list input in the order of
    `order` (a function of the batch size), with each item's index."""

    def __init__(self, provider, order=lambda size: range(size)) -> None:
        self.provider = provider
        self.order = order
        self.payloads: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.payloads.append(json)
        inputs = json["input"]
        if isinstance(inputs, str):
            body = {"data": [{"index": 0, "embedding": list(self.provider.embed(inputs))}]}
        else:
            body = {
                "data": [
                    {"index": i, "embedding": list(self.provider.embed(inputs[i]))}
                    for i in self.order(len(inputs))
                ]
            }
        return QueuedResponse(200, body)


class TestHttpEmbedderBatch:
    @staticmethod
    def _provider(session):
        from kgagent.embedding import HttpEmbedder

        return HttpEmbedder("http://fake", "embed-x", session=session)

    def test_one_request_with_a_list_input_placed_by_index(self, embedder):
        session = ListEmbeddingSession(embedder, order=lambda size: reversed(range(size)))
        texts = ["alpha", "beta", "gamma"]
        vectors = self._provider(session).embed_many(texts)
        assert session.payloads == [{"model": "embed-x", "input": texts}]
        assert vectors == [embedder.embed(text) for text in texts]

    def test_2049_texts_take_two_requests(self, embedder):
        session = ListEmbeddingSession(embedder)
        texts = [f"text {i}" for i in range(2049)]
        vectors = self._provider(session).embed_many(texts)
        assert [len(payload["input"]) for payload in session.payloads] == [2048, 1]
        assert [text for payload in session.payloads for text in payload["input"]] == texts
        assert vectors[0] == embedder.embed("text 0")
        assert vectors[2048] == embedder.embed("text 2048")

    def test_does_not_go_through_embed(self, embedder):
        session = ListEmbeddingSession(embedder)
        provider = self._provider(session)

        def refuse(text):
            raise AssertionError("embed_many called embed")

        provider.embed = refuse
        assert provider.embed_many(["a", "b"]) == [embedder.embed("a"), embedder.embed("b")]
        assert len(session.payloads) == 1

    @pytest.mark.parametrize(
        "data",
        [
            [{"index": 0, "embedding": [1.0]}],  # fewer items than inputs
            [{"index": i, "embedding": [1.0]} for i in range(3)],  # more items
            [{"index": 0, "embedding": [1.0]}, {"embedding": [2.0]}],  # missing index
            [{"index": 1, "embedding": [1.0]}, {"index": 1, "embedding": [2.0]}],  # duplicate
            [{"index": 0, "embedding": [1.0]}, {"index": 2, "embedding": [2.0]}],  # out of range
            [{"index": "0", "embedding": [1.0]}, {"index": 1, "embedding": [2.0]}],
            [{"index": 0, "embedding": [1.0]}, {"index": True, "embedding": [2.0]}],
        ],
    )
    def test_malformed_indexes_cost_one_request(self, monkeypatch, data):
        waits: list[float] = []
        monkeypatch.setattr("kgagent.llm.time.sleep", waits.append)
        session = QueuedSession([QueuedResponse(200, {"data": data})] * 3)
        with pytest.raises(ProviderError, match="malformed embedding body"):
            self._provider(session).embed_many(["a", "b"])
        assert (len(session.calls), waits) == (1, [])

    def test_a_number_that_is_not_int_or_float_is_rejected(self):
        data = [{"index": 0, "embedding": [1.0, 2]}, {"index": 1, "embedding": [1.0, None]}]
        body = {"data": data}
        session = QueuedSession([QueuedResponse(200, body)])
        with pytest.raises(ProviderError, match="not a list of numbers"):
            self._provider(session).embed_many(["a", "b"])


class BatchTableProvider(TableProvider):
    """A TableProvider with embed_many; records each batch."""

    def __init__(self, vectors: dict) -> None:
        super().__init__(vectors)
        self.batches: list[list[str]] = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return [self.vectors[text] for text in texts]


class TestEmbedTexts:
    VECTORS = {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0), "d": (2.0, -1.0)}

    def test_misses_go_in_one_batch_deduplicated_in_first_seen_order(self):
        from kgagent.embedding import embed_texts

        provider = BatchTableProvider(self.VECTORS)
        cache = EmbeddingCache()
        cache.put("b", self.VECTORS["b"])
        texts = ["c", "b", "a", "c", "d", "a"]
        assert embed_texts(texts, provider, cache) == [self.VECTORS[t] for t in texts]
        assert (provider.batches, provider.calls) == ([["c", "a", "d"]], [])
        assert len(cache) == 4
        assert embed_texts(["a", "d"], provider, cache) == [self.VECTORS["a"], self.VECTORS["d"]]
        assert len(provider.batches) == 1  # all hits

    def test_a_single_miss_goes_through_embed_many(self):
        from kgagent.embedding import embed_texts

        provider = BatchTableProvider(self.VECTORS)
        assert embed_texts(["a", "a"], provider, EmbeddingCache()) == [self.VECTORS["a"]] * 2
        assert (provider.batches, provider.calls) == ([["a"]], [])

    def test_a_provider_without_embed_many_gets_one_call_per_miss(self):
        from kgagent.embedding import embed_texts

        provider = TableProvider(self.VECTORS)
        embed_texts(["d", "a", "d", "b"], provider, EmbeddingCache())
        assert provider.calls == ["d", "a", "b"]

    @pytest.mark.parametrize("bad", [(float("nan"), 1.0), (1.0, float("inf")), ()])
    def test_a_batch_with_a_bad_vector_stores_nothing(self, tmp_path, bad):
        from kgagent.embedding import embed_texts

        provider = BatchTableProvider({**self.VECTORS, "bad": bad})
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            with pytest.raises(EmbeddingError, match=f"holds {re.escape(UNSCORABLE)}$"):
                embed_texts(["a", "bad", "c"], provider, cache)
            assert len(cache) == 0
        assert path.read_bytes() == b""

    def test_a_wrong_vector_count_is_a_provider_error(self):
        from kgagent.embedding import embed_texts

        class ShortBatch(BatchTableProvider):
            def embed_many(self, texts):
                return super().embed_many(texts)[:-1]

        with pytest.raises(ProviderError, match="2 vectors for 3 texts"):
            embed_texts(["a", "b", "c"], ShortBatch(self.VECTORS), EmbeddingCache())

    def test_score_many_embeds_the_question_then_one_batch(self):
        from kgagent.embedding import QuestionScorer

        provider = BatchTableProvider({"q": (1.0, 2.0), **self.VECTORS})
        scorer = QuestionScorer("q", provider, EmbeddingCache())
        scores = scorer.score_many(["c", "a", "c", "d"])
        assert (provider.calls, provider.batches) == ([], [["q"], ["c", "a", "d"]])
        assert scores == [cosine((1.0, 2.0), self.VECTORS[t]) for t in ("c", "a", "c", "d")]
        assert scorer.score_many(["d", "a"]) == [scores[3], scores[1]]
        assert len(provider.batches) == 2


def frozen_put(handle, text: str, vector) -> None:
    """EmbeddingCache.put's file write as first written: one record per call."""
    data = text.encode("utf-8")
    handle.write(struct.pack("<I", len(data)))
    handle.write(data)
    handle.write(struct.pack("<I", len(vector)))
    handle.write(struct.pack(f"<{len(vector)}d", *vector))


class TestPackedCache:
    ODD_VECTORS = {
        "zeros": (0.0, -0.0, 0.0),
        "subnormal": (5e-324, -2.2250738585072014e-308 / 3, 1.0),
        "extremes": (2.0**500, -1e-300, 0.1),  # the largest component a cache takes
        "münchen \t tab": (-1.5, 2.5, 1 / 3),
        "": (3.0, 4.0, 12.0),
    }

    @staticmethod
    def _bits(vector):
        return [x.hex() for x in vector]

    def test_put_many_file_equals_the_per_text_put_file(self, tmp_path):
        import io

        expected = io.BytesIO()
        for text, vector in self.ODD_VECTORS.items():
            frozen_put(expected, text, vector)
        path = tmp_path / "cache.bin"
        items = list(self.ODD_VECTORS.items())
        with EmbeddingCache(path) as cache:
            cache.put_many(items[:2])
            cache.put_many(items[:1] + items[2:] + items[3:4])  # repeats are skipped
        assert path.read_bytes() == expected.getvalue()
        with EmbeddingCache(path) as reloaded:
            assert len(reloaded) == len(self.ODD_VECTORS)
            for text, vector in self.ODD_VECTORS.items():
                got = reloaded.get(text)
                assert type(got) is tuple and self._bits(got) == self._bits(vector)

    def test_get_returns_bit_identical_tuples_before_reload(self):
        cache = EmbeddingCache()
        cache.put_many(self.ODD_VECTORS.items())
        for text, vector in self.ODD_VECTORS.items():
            assert self._bits(cache.get(text)) == self._bits(vector)
        assert cache.get("absent") is None

    def test_put_many_writes_and_flushes_once(self, tmp_path):
        with EmbeddingCache(tmp_path / "cache.bin") as cache:
            real = cache._file
            counts = {"write": 0, "flush": 0}

            class Spy:
                def write(self, data):
                    counts["write"] += 1
                    return real.write(data)

                def flush(self):
                    counts["flush"] += 1
                    real.flush()

                def close(self):
                    real.close()

            cache._file = Spy()
            cache.put_many(self.ODD_VECTORS.items())
            assert counts == {"write": 1, "flush": 1}
            cache.put_many(self.ODD_VECTORS.items())  # nothing new: no write at all
            assert counts == {"write": 1, "flush": 1}


class TestOneRuleAtPutMany:
    HELD = ("held", (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "bad, refusal",
        [((1.7976931348623157e308, 0.0, 0.1), re.escape(UNSCORABLE)),
         ((float("nan"), 0.0, 1.0), re.escape(UNSCORABLE)),
         ((1.0, 2.0), "a vector of dimension 2, not 3")],
        ids=["1.797e308", "nan", "another-dimension"],
    )
    def test_a_batch_with_one_bad_vector_stores_and_appends_nothing(self, tmp_path, bad, refusal):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            cache.put(*self.HELD)
            whole = path.read_bytes()
            batch = [("a", (3.0, 4.0, 12.0)), ("bad", bad), ("b", (1.0, 0.0, 0.0))]
            with pytest.raises(EmbeddingError, match=f"^a batch to store holds {refusal}$"):
                cache.put_many(batch)
            assert len(cache) == 1 and cache.get("a") is None
        assert path.read_bytes() == whole

    def test_an_empty_cache_takes_the_dimension_of_the_batchs_first_vector(self):
        cache = EmbeddingCache()
        with pytest.raises(EmbeddingError, match="a vector of dimension 3, not 2$"):
            cache.put_many([("a", (1.0, 2.0)), self.HELD])
        assert len(cache) == 0
        cache.put_many([self.HELD])  # the refused batch fixed no dimension
        assert cache.get("held") == self.HELD[1]
