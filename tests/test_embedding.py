from __future__ import annotations

import random

import pytest
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from kgagent.embedding import (
    DeterministicEmbedder,
    EmbeddingCache,
    EmbeddingError,
    EmbeddingProviderError,
    combined_text,
    cosine,
    embed_text,
    score_candidate,
)


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
        with pytest.raises(EmbeddingProviderError, match="boom"):
            embed_text("x", provider)
        assert provider.calls == 1


class TestScoreCandidate:
    def test_combined_text_single_space(self):
        assert combined_text("capital", "Shinjuku") == "capital Shinjuku"

    def test_reproducible_against_recomputation(self, embedder):
        question_vector = embedder.embed("What is the capital of the prefecture Tokyo ?")
        score = score_candidate(question_vector, "capital", "Shinjuku", embedder)
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
        assert score_candidate(
            question_vector, "capital", "Shinjuku", embedder
        ) != score_candidate(question_vector, "Shinjuku", "capital", embedder)


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
                return {"data": [{"embedding": vector}]}

        return Response()


class TestHttpEmbedder:
    def test_embeds_and_learns_dimension(self):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([[1.0, 2.0, 3.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        with pytest.raises(EmbeddingProviderError):
            provider.dimension  # unknown before the first call
        assert provider.embed("text") == (1.0, 2.0, 3.0)
        assert provider.dimension == 3
        assert session.calls[0]["json"] == {"model": "embed-x", "input": "text"}

    def test_dimension_change_rejected(self):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([[1.0, 2.0], [1.0, 2.0, 3.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        provider.embed("a")
        with pytest.raises(EmbeddingProviderError):
            provider.embed("b")

    def test_empty_first_vector_does_not_fix_the_dimension(self):
        from kgagent.embedding import HttpEmbedder

        session = FakeEmbeddingSession([[], [1.0, 2.0]])
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        with pytest.raises(EmbeddingProviderError, match="empty"):
            provider.embed("a")
        assert provider.embed("b") == (1.0, 2.0)
        assert provider.dimension == 2


class QueuedResponse:
    def __init__(self, status_code: int, body=None) -> None:
        self.status_code = status_code
        self.text = "error body"
        self._body = body

    def json(self):
        return self._body


class QueuedEmbeddingSession:
    """Yields queued responses (or raises queued exceptions) per post call."""

    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpEmbedderRequestPolicy:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        waits: list[float] = []
        monkeypatch.setattr("kgagent.llm.time.sleep", waits.append)
        return waits

    def _embed(self, outcomes):
        from kgagent.embedding import HttpEmbedder

        session = QueuedEmbeddingSession(outcomes)
        provider = HttpEmbedder("http://fake", "embed-x", session=session)
        return session, lambda: embed_text("text", provider)

    def test_transient_500_is_retried(self, sleeps):
        body = {"data": [{"embedding": [1.0, 2.0, 2.0]}]}
        session, embed = self._embed([QueuedResponse(500), QueuedResponse(200, body)])
        assert embed() == (1.0, 2.0, 2.0)
        assert (session.calls, sleeps) == (2, [0.5])

    def test_connection_errors_exhaust_attempts_on_schedule(self, sleeps):
        import requests

        session, embed = self._embed([requests.ConnectionError("down")] * 3)
        with pytest.raises(EmbeddingProviderError, match="after 3 attempts"):
            embed()
        assert (session.calls, sleeps) == (3, [0.5, 1.0])

    def test_rejected_request_is_not_retried(self, sleeps):
        session, embed = self._embed([QueuedResponse(401)] * 3)
        with pytest.raises(EmbeddingProviderError, match="rejected with status 401"):
            embed()
        assert (session.calls, sleeps) == (1, [])

    @pytest.mark.parametrize(
        "body",
        [{}, {"data": []}, {"data": [{}]}, {"data": [{"embedding": [1.0, "x"]}]},
         {"data": [{"embedding": "123"}]}, ["data"]],
    )
    def test_malformed_body_is_not_retried(self, sleeps, body):
        session, embed = self._embed([QueuedResponse(200, body)] * 3)
        with pytest.raises(EmbeddingProviderError):
            embed()
        assert (session.calls, sleeps) == (1, [])

    def test_body_that_is_not_json_is_not_retried(self, sleeps):
        import requests

        class NotJsonResponse(QueuedResponse):
            def json(self):
                raise requests.JSONDecodeError("Expecting value", "<html>", 0)

        session, embed = self._embed([NotJsonResponse(200)] * 3)
        with pytest.raises(EmbeddingProviderError, match="malformed embedding body"):
            embed()
        assert (session.calls, sleeps) == (1, [])


class TestCache:
    def test_round_trip_bit_identical(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            texts = ["alpha", "beta gamma", "münchen \t tab"]
            originals = {t: embed_text(t, embedder, cache) for t in texts}
        with EmbeddingCache(path) as reloaded:
            for text, vector in originals.items():
                assert reloaded.get(text) == vector

    def test_append_only_across_sessions(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_text("one", embedder, cache)
        with EmbeddingCache(path) as cache:
            embed_text("two", embedder, cache)
            assert "one" in cache and "two" in cache
        with EmbeddingCache(path) as cache:
            assert len(cache) == 2

    def test_truncated_file_raises(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_text("one", embedder, cache)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(EmbeddingError):
            EmbeddingCache(path)

    def test_undecodable_text_raises_with_offset_and_path(self, tmp_path, embedder):
        path = tmp_path / "cache.bin"
        with EmbeddingCache(path) as cache:
            embed_text("one", embedder, cache)
            embed_text("two", embedder, cache)
        data = bytearray(path.read_bytes())
        second = len(data) // 2  # both records have the same length
        data[second + 4] = 0xFF  # first byte of the second record's text
        path.write_bytes(bytes(data))
        with pytest.raises(EmbeddingError, match=f"byte {second + 4} in .*cache.bin"):
            EmbeddingCache(path)

    def test_unpersisted_cache_works(self, embedder):
        cache = EmbeddingCache()
        embed_text("one", embedder, cache)
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
            scorer = QuestionScorer("question", TableProvider(vectors))
            for text in vectors:
                assert scorer.score(text) == cosine(vectors["question"], vectors[text])

    def test_bit_identical_to_score_candidate(self, embedder):
        from kgagent.embedding import QuestionScorer

        question = "What is the capital of the prefecture Tokyo ?"
        scorer = QuestionScorer(question, embedder, EmbeddingCache())
        question_vector = embedder.embed(question)
        for relation, tail in [("capital", "Shinjuku"), ("country", "Japan"), ("a", "")]:
            assert scorer.score(combined_text(relation, tail)) == score_candidate(
                question_vector, relation, tail, embedder
            )

    def test_each_text_embedded_once_question_first_and_lazily(self):
        from kgagent.embedding import QuestionScorer

        vectors = {"q": (1.0, 2.0), "a": (3.0, -1.0), "b": (0.5, 0.5)}
        provider = TableProvider(vectors)
        scorer = QuestionScorer("q", provider)
        assert provider.calls == []
        first = [scorer.score(text) for text in ("a", "b", "a", "b")]
        assert provider.calls == ["q", "a", "b"]
        assert first[0] == first[2] and first[1] == first[3]
        assert scorer.question_vector() == (1.0, 2.0)
        assert provider.calls == ["q", "a", "b"]

    def test_dimension_mismatch_raises(self):
        from kgagent.embedding import QuestionScorer

        provider = TableProvider({"q": (1.0, 2.0), "a": (1.0, 2.0, 3.0)})
        with pytest.raises(EmbeddingError):
            QuestionScorer("q", provider).score("a")

    def test_zero_norm_raises(self):
        from kgagent.embedding import QuestionScorer

        provider = TableProvider({"q": (1.0, 2.0), "zero": (0.0, 0.0), "zq": (0.0, 0.0)})
        with pytest.raises(EmbeddingError):
            QuestionScorer("q", provider).score("zero")
        with pytest.raises(EmbeddingError):
            QuestionScorer("zq", provider).score("q")


class TestDeterministicEmbedderFrozen:
    @pytest.mark.parametrize("dimension", [2, 7, 8, 9, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, -3])
    def test_matches_frozen_loop(self, seed, dimension):
        from kgagent.embedding import DeterministicEmbedder

        provider = DeterministicEmbedder(seed=seed, dimension=dimension)
        for text in ("", "probe", "capital Shinjuku", "множество", "a b c d" * 40):
            assert provider.embed(text) == frozen_deterministic_embed(seed, dimension, text)
