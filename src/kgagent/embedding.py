"""Embedding providers, cosine scoring, and a persistent embedding cache.

Scores feed golden trace files that must be byte-identical across runs and
platforms, so no BLAS or libm transcendentals are used anywhere on the
scoring path: sums go through math.fsum (correctly rounded) and the
deterministic provider builds vectors from hash-derived integers using only
IEEE-exact operations.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import threading
from itertools import repeat
from math import ceil, fsum, hypot, sqrt
from operator import mul, truediv
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .llm import HttpChatConfig, ProviderError, post_json

logger = logging.getLogger(__name__)

Vector = tuple[float, ...]

_RECORD_LENGTH = struct.Struct("<I")
_MAX_BATCH = 2048  # inputs per /embeddings request, the OpenAI limit
# |component| <= 2**500 bounds a norm's square or a dot product over at most
# 2**23 components by 2**1023, so fsum never overflows and no score is NaN
_MAX_COMPONENT = 2.0**500
_MAX_DIMENSION = 1 << 23
_UNSCORABLE = "a vector that is empty, over 2**23 long or has a component beyond 2**500"


class EmbeddingError(ValueError):
    """A vector outside _scorable's bounds, of another dimension or of zero norm."""


class EmbeddingProvider(Protocol):
    def embed(self, text: str) -> Vector: ...


def _scorable(vector: Vector) -> bool:
    """Non-empty, at most 2**23 components, none beyond 2**500 in magnitude (so none
    NaN or inf); no component exceeds the norm, so a norm under half the bound passes."""
    return 0 < len(vector) <= _MAX_DIMENSION and (
        hypot(*vector) <= _MAX_COMPONENT / 2 or all(map(_MAX_COMPONENT.__ge__, map(abs, vector)))
    )


def cosine(a: Iterable[float], b: Iterable[float]) -> float:
    """dot(a, b) / (|a| * |b|), in [-1, 1] up to rounding."""
    a = tuple(a)
    return _cosine(a, _norm(a), tuple(b))


def _norm(vector: Vector) -> float:
    return sqrt(fsum(map(mul, vector, vector)))


def _cosine(a: Vector, norm_a: float, b: Vector) -> float:
    if len(a) != len(b):
        raise EmbeddingError(f"dimension mismatch: {len(a)} vs {len(b)}")
    norm_b = _norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise EmbeddingError("zero-norm vector")
    return fsum(map(mul, a, b)) / (norm_a * norm_b)


def combined_text(relation_label: str, tail_label: str) -> str:
    """Relation and tail labels joined by exactly one space."""
    return f"{relation_label} {tail_label}"


def embed_texts(
    texts: Sequence[str], provider: EmbeddingProvider, cache: "EmbeddingCache"
) -> list[Vector]:
    """Embed texts through the cache; cache hits return the stored vector bit-for-bit.

    Each distinct text is looked up once; the misses go to the provider in
    one call, in first-seen order (embed_many, when the provider has it), and
    the cache stores them or refuses them all. Any provider exception becomes
    ProviderError, without a retry.
    """
    vectors = {text: cache.get(text) for text in dict.fromkeys(texts)}
    misses = [text for text, vector in vectors.items() if vector is None]
    if misses:
        embed_many = getattr(provider, "embed_many", None)
        try:
            if embed_many is None:
                raws = [provider.embed(text) for text in misses]
            else:
                raws = embed_many(misses)
        except ProviderError:
            raise
        except Exception as exc:
            raise ProviderError(f"embedding provider failed: {exc!r}") from exc
        fresh = [tuple(map(float, raw)) for raw in raws]
        if len(fresh) != len(misses):
            raise ProviderError(f"{len(fresh)} vectors for {len(misses)} texts")
        cache.put_many(zip(misses, fresh))
        vectors.update(zip(misses, fresh))
    return [vectors[text] for text in texts]


def score_candidate(
    question_vector: Vector,
    relation_label: str,
    tail_label: str,
    provider: EmbeddingProvider,
    cache: "EmbeddingCache",
) -> float:
    """Cosine between the question vector and the embedded relation+tail text."""
    text = combined_text(relation_label, tail_label)
    return cosine(question_vector, embed_texts([text], provider, cache)[0])


class QuestionScorer:
    """Cosine scores of texts against one question, each text scored once.

    The question is embedded on first use and its norm computed once; the
    texts of one score_many call that have no score yet are embedded through
    embed_texts in one batch and memoized. A score equals cosine(question
    vector, text vector) bit for bit. A scorer serves one question over one
    graph and is not shared between threads; `ranked` holds observation's
    per-entity rankings for that question.
    """

    def __init__(self, question: str, provider: EmbeddingProvider, cache: "EmbeddingCache") -> None:
        self.question = question
        self.provider = provider
        self.cache = cache
        self._embedded: tuple[Vector, float] | None = None
        self._scores: dict[str, float] = {}
        self.ranked: dict[str, list[tuple[float, tuple]]] = {}  # entity -> [(-score, edge)]

    def question_vector(self) -> Vector:
        """The question's embedding; the first call embeds it."""
        if self._embedded is None:
            vector = embed_texts([self.question], self.provider, self.cache)[0]
            self._embedded = (vector, _norm(vector))
        return self._embedded[0]

    def score_many(self, texts: Sequence[str]) -> list[float]:
        scores = self._scores
        new = [text for text in dict.fromkeys(texts) if text not in scores]
        if new:
            question = self.question_vector()
            norm = self._embedded[1]
            for text, vector in zip(new, embed_texts(new, self.provider, self.cache)):
                scores[text] = _cosine(question, norm, vector)
        return [scores[text] for text in texts]


class DeterministicEmbedder:
    """Keyed-hash unit vectors, stable across runs and platforms.

    BLAKE2b states keyed by seed and counter are built once. embed copies each
    (never updating it, so threads may share an embedder), hashes the UTF-8
    text, and reads the components as little-endian signed 64-bit words of the
    joined digests with one unpack; the fsum norm and division are IEEE-exact.
    """

    def __init__(self, seed: int, dimension: int) -> None:
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        if not -(2**63) <= seed < 2**63:
            raise ValueError(f"seed must fit a signed 64-bit integer, got {seed}")
        self.seed = seed
        self.dimension = dimension
        seed_key = seed.to_bytes(8, "little", signed=True)
        keys = (seed_key + counter.to_bytes(4, "little") for counter in range(ceil(dimension / 8)))
        self._states = [hashlib.blake2b(key=key, digest_size=64) for key in keys]
        self._unpack = struct.Struct(f"<{dimension}q").unpack_from

    def embed(self, text: str) -> Vector:
        data = text.encode("utf-8")
        digests = []
        for state in self._states:
            keyed = state.copy()
            keyed.update(data)
            digests.append(keyed.digest())
        components = tuple(map(float, self._unpack(b"".join(digests))))
        return tuple(map(truediv, components, repeat(_norm(components))))


class HttpEmbedder:
    """Client for an OpenAI-style /embeddings endpoint.

    Requests go through post_json: transient failures are tried 3 times,
    0.5 s and then 1.0 s apart; a rejected request or a malformed reply
    raises ProviderError at once. The cache alone checks the vectors.
    """

    def __init__(
        self, endpoint: str, model: str, api_key_env: str = "OPENAI_API_KEY", session=None
    ) -> None:
        import requests

        self.config = HttpChatConfig(endpoint, model, api_key_env, backoff=0.5)
        self._session = session or requests.Session()

    def embed(self, text: str) -> Vector:
        return self._request([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[Vector]:
        """One request per _MAX_BATCH texts; vectors in the order of texts."""
        batches = (list(texts[i : i + _MAX_BATCH]) for i in range(0, len(texts), _MAX_BATCH))
        return [vector for batch in batches for vector in self._request(batch)]

    def _request(self, inputs: list[str]) -> list[Vector]:
        """Embed a list of texts, each vector placed by its reply item's index."""
        payload = {"model": self.config.model, "input": inputs}
        body = post_json(self._session, self.config, "embeddings", payload, "embedding")
        try:
            data = body["data"]
            by_index = {item["index"]: item["embedding"] for item in data}
            # a bool or float index equals an int one, so its type is checked too
            if (
                len(data) != len(inputs)
                or by_index.keys() != set(range(len(inputs)))
                or not {*map(type, by_index)} <= {int}
            ):
                raise ValueError(f"{len(data)} items for {len(inputs)} inputs, bad indexes")
            raws = [by_index[index] for index in range(len(inputs))]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed embedding body: {exc!r}") from exc
        # exact types: a JSON true is a bool, and a bool is an int
        if not all(isinstance(raw, list) and {*map(type, raw)} <= {int, float} for raw in raws):
            raise ProviderError("an embedding is not a list of numbers")
        return [tuple(map(float, raw)) for raw in raws]


class EmbeddingCache:
    """Text -> vector cache with optional append-only file persistence.

    The one door for vectors: put_many refuses a batch, and _load a file,
    holding a vector that is not _scorable or not of the cache's dimension.
    Record layout: u32 text length, UTF-8 text, u32 dimension, dimension
    little-endian float64 components. A vector is held as those component
    bytes and unpacked by get, so reload and get yield bit-identical vectors.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._entries: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        self._file = None
        if self._path is not None:
            if self._path.exists():
                self._load(self._path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "ab")

    def _load(self, path: Path) -> None:
        blob = path.read_bytes()
        offset = 0  # the start of the next record
        while offset + 4 <= len(blob):
            (text_length,) = _RECORD_LENGTH.unpack_from(blob, offset)
            text_end = offset + 4 + text_length
            if text_end + 4 > len(blob):
                break
            try:
                text = blob[offset + 4 : text_end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EmbeddingError(f"bad UTF-8 at byte {offset + 4} in {path}") from exc
            (dimension,) = _RECORD_LENGTH.unpack_from(blob, text_end)
            record_end = text_end + 4 + 8 * dimension
            if record_end > len(blob):
                break
            packed = blob[text_end + 4 : record_end]
            if refusal := self._refusal(struct.unpack(f"<{dimension}d", packed), dimension):
                raise EmbeddingError(f"the record at byte {offset} in {path} holds {refusal}")
            self._entries[text] = packed
            offset = record_end
        if offset < len(blob):  # a torn last record, as from a write cut short: cut it off
            logger.warning("dropped a truncated cache record at byte %d in %s", offset, path)
            os.truncate(path, offset)

    def _refusal(self, vector: Vector, first: int) -> str | None:
        """Why the one rule refuses a vector, or None: a vector must be _scorable and
        of the cache's dimension, that of its vectors or, when it has none, first."""
        dimension = len(next(iter(self._entries.values()), b"")) >> 3 or first
        if not _scorable(vector):
            return _UNSCORABLE
        if len(vector) != dimension:
            return f"a vector of dimension {len(vector)}, not {dimension}"
        return None

    def get(self, text: str) -> Vector | None:
        with self._lock:
            packed = self._entries.get(text)
        return None if packed is None else struct.unpack(f"<{len(packed) >> 3}d", packed)

    def put(self, text: str, vector: Vector) -> None:
        self.put_many([(text, vector)])

    def put_many(self, items: Iterable[tuple[str, Vector]]) -> None:
        """Store new texts in order with one write and one flush, or refuse the whole batch."""
        items = list(items)
        records = []
        with self._lock:
            for _, vector in items:
                if refusal := self._refusal(vector, len(items[0][1])):
                    raise EmbeddingError(f"a batch to store holds {refusal}")
            for text, vector in items:
                if text in self._entries:
                    continue  # identical by provider determinism
                packed = self._entries[text] = struct.pack(f"<{len(vector)}d", *vector)
                if self._file is not None:
                    data = text.encode("utf-8")
                    records += (_RECORD_LENGTH.pack(len(data)), data,
                                _RECORD_LENGTH.pack(len(vector)), packed)
            if records:
                self._file.write(b"".join(records))
                self._file.flush()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EmbeddingCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
