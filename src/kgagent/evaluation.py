"""Dataset loading, Hits@1 exact-match scoring, batch execution, reporting."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .agent import AgentConfig, AgentError, Providers, run, trace_to_json
from .kg import EntityId, KnowledgeGraph, load_json_records


@dataclass
class DatasetRecord:
    question: str
    seed_entities: list[EntityId]
    gold_answers: list[str]

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError("question must be non-empty")
        if not self.seed_entities:
            raise ValueError("entities must be non-empty")
        if "" in self.seed_entities:  # no graph id is empty (see load_triples)
            raise ValueError("entities must not hold an empty id")
        if not self.gold_answers:
            raise ValueError("gold answers must be non-empty")


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Read JSON-lines records with question / entities / answers fields.

    Each line is decoded as UTF-8 on its own; one that is not UTF-8 raises
    InputError, as a malformed record does (see load_json_records).
    """
    return load_json_records(path, "dataset record", _dataset_record)


def _dataset_record(data: dict) -> DatasetRecord:
    if not isinstance(data["question"], str):
        raise ValueError("question must be a JSON string")
    for name in ("entities", "answers"):
        value = data[name]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{name} must be a JSON array of strings")
    return DatasetRecord(data["question"], data["entities"], data["answers"])


def normalize_answer(text: str) -> str:
    """Trim, case-fold, and collapse internal whitespace."""
    return " ".join(text.split()).casefold()


def score_hit(
    predicted: Sequence[str], gold: Iterable[str], mode: str = "normalized"
) -> int:
    """1 iff any predicted answer matches any gold answer.

    mode "normalized" compares after normalize_answer; "strict" compares raw
    bytes.
    """
    if mode == "strict":
        gold_set = set(gold)
        return int(any(p in gold_set for p in predicted))
    if mode != "normalized":
        raise ValueError(f"unknown match mode {mode!r}")
    gold_set = {normalize_answer(g) for g in gold}
    return int(any(normalize_answer(p) in gold_set for p in predicted))


@dataclass
class QuestionOutcome:
    index: int
    question: str
    hit: int
    answers: list[str]
    gold: list[str]
    halted_by: str | None
    error: str | None
    elapsed: float

    def to_dict(self) -> dict:
        return {**vars(self), "elapsed": round(self.elapsed, 6)}


@dataclass
class EvalReport:
    total: int
    hits: int
    accuracy: float
    outcomes: list[QuestionOutcome] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    note: str | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "outcomes": [outcome.to_dict() for outcome in self.outcomes]}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    # the nearest rank, ceil(q * n): an index in range for n >= 1 and 1e-6 <= q <= 1
    return sorted_values[int(q * len(sorted_values) + 0.999999) - 1]


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=True, indent=2) + "\n"


def run_eval(
    dataset: Sequence[DatasetRecord],
    kg: KnowledgeGraph,
    providers: Providers,
    config: AgentConfig | None = None,
    workers: int = 1,
    out_dir: str | Path | None = None,
    match_mode: str = "normalized",
) -> EvalReport:
    """Run the agent on every record, all with the one providers, and
    aggregate Hits@1.

    Per-question failures are recorded as misses with their error message;
    the batch never aborts. Traces are persisted under out_dir/traces when an
    output directory is given. Accuracy is invariant to dataset order and
    worker count.
    """
    config = config or AgentConfig()
    traces_dir: Path | None = None
    if out_dir is not None:
        traces_dir = Path(out_dir) / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)

    def evaluate(indexed: tuple[int, DatasetRecord]) -> QuestionOutcome:
        index, record = indexed
        started = time.monotonic()
        answers, halted_by, hit, trace, error = [], None, 0, None, None
        try:
            result = run(record.question, record.seed_entities, kg, providers, config)
            trace = result.trace
            hit = score_hit(result.answers, record.gold_answers, mode=match_mode)
            answers, halted_by = result.answers, result.halted_by
        except AgentError as exc:
            trace, error = exc.trace, str(exc)
        except Exception as exc:  # defensive: misconfigured records stay misses
            error = f"{type(exc).__name__}: {exc}"
        outcome = QuestionOutcome(
            index=index,
            question=record.question,
            hit=hit,
            answers=answers,
            gold=list(record.gold_answers),
            halted_by=halted_by,
            error=error,
            elapsed=time.monotonic() - started,
        )
        if traces_dir is not None and trace is not None:
            path = traces_dir / f"q{index:05d}.json"
            path.write_text(trace_to_json(trace), encoding="utf-8", newline="\n")
        return outcome

    started_batch = time.monotonic()
    indexed_records = list(enumerate(dataset))
    if workers <= 1:
        outcomes = [evaluate(item) for item in indexed_records]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(evaluate, indexed_records))
    wall = time.monotonic() - started_batch

    total = len(outcomes)
    hits = sum(outcome.hit for outcome in outcomes)
    durations = sorted(outcome.elapsed for outcome in outcomes)
    report = EvalReport(
        total=total,
        hits=hits,
        accuracy=(hits / total) if total else 0.0,
        outcomes=outcomes,
        timing={
            "wall_seconds": round(wall, 6),
            "mean": round(sum(durations) / total, 6) if total else 0.0,
            "p50": round(_percentile(durations, 0.50), 6),
            "p90": round(_percentile(durations, 0.90), 6),
            "p99": round(_percentile(durations, 0.99), 6),
            "max": round(durations[-1], 6) if durations else 0.0,
        },
        note="empty dataset" if total == 0 else None,
    )
    if out_dir is not None:
        report_path = Path(out_dir) / "report.json"
        report_path.write_text(report_to_json(report), encoding="utf-8", newline="\n")
    return report
