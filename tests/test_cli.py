from __future__ import annotations

import gc
import json
import re
import warnings

import pytest

from kgagent.cli import main
from kgagent.embedding import EmbeddingCache
from kgagent.kg import load_kg

from conftest import (
    TOKYO_LABELS,
    TOKYO_QUESTION,
    TOKYO_SCRIPT,
    TOKYO_TRIPLES,
    edge_set,
    make_kg,
    save_script,
)
from test_embedding import frozen_put
from kgagent.kg import save_kg
from kgagent.llm import ScriptEntry


@pytest.fixture
def kg_dir(tmp_path):
    directory = tmp_path / "kg"
    save_kg(make_kg(TOKYO_TRIPLES, TOKYO_LABELS), directory)
    return directory


@pytest.fixture
def tokyo_script_file(tmp_path):
    path = tmp_path / "tokyo_script.jsonl"
    save_script(
        [ScriptEntry(kind, match, response) for kind, match, response in TOKYO_SCRIPT], path
    )
    return path


class TestBuildSubgraph:
    def test_builds_and_reloads(self, tmp_path, capsys):
        triples = tmp_path / "dump.tsv"
        triples.write_text(
            "Q1\tP1\tQ2\nQ2\tP1\tQ3\nQ3\tP1\tQ4\nQ4\tP1\tQ5\nQ9\tP1\tQ1\n",
            encoding="utf-8",
        )
        labels = tmp_path / "labels.tsv"
        labels.write_text("Q1\tone\nQ9\tnine\n", encoding="utf-8")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("Q1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "build-subgraph",
                "--triples", str(triples),
                "--labels", str(labels),
                "--seeds", str(seeds),
                "--k", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        kg = load_kg(out)
        assert edge_set(kg) == {
            ("Q1", "P1", "Q2"),
            ("Q2", "P1", "Q3"),
            ("Q3", "P1", "Q4"),
        }
        assert kg.label_of("Q1") == "one"
        assert "wrote 3 triples" in capsys.readouterr().out

    def test_k_below_one_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "build-subgraph",
                    "--triples", str(tmp_path / "dump.tsv"),
                    "--seeds", str(tmp_path / "seeds.txt"),
                    "--k", "0",
                    "--out", str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert "argument --k: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestAsk:
    def test_scripted_ask_prints_answer(self, kg_dir, tokyo_script_file, capsys, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "Shinjuku" in captured
        assert "halted_by: answer_action" in captured
        trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
        assert trace["answers"] == ["Shinjuku"]

    def test_ask_prints_labels_not_ids_in_executed_lines(self, kg_dir, tokyo_script_file, capsys):
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
            ]
        )
        assert code == 0
        executed = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("Executed:")
        ]
        assert executed[0] == "Executed: GetNeighbor(Tokyo)"
        assert not any(identifier in line for line in executed for identifier in TOKYO_LABELS)

    def test_lookup_ask_stops_at_the_iteration_cap(self, tmp_path, capsys):
        (tmp_path / "triples.tsv").write_text("A\tr\tB\n", encoding="utf-8")
        script = tmp_path / "ask.jsonl"
        save_script(
            [
                ScriptEntry("substring", "Action History", "Action: GetNeighbor\nEntity_id: A"),
                ScriptEntry("substring", "You queried some candidate triples", "(A, r, B)"),
                ScriptEntry("substring", "reference memory", "Answer: B"),
            ],
            script,
        )
        code = main(
            [
                "ask",
                "--kg", str(tmp_path),
                "--question", "what does A reach?",
                "--entities", "A",
                "--script", str(script),
                "--script-mode", "lookup",
                "--max-iterations", "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "Reflected: (A, r, B)" in lines
        assert "Answer: B" in lines
        assert "halted_by: iteration_cap" in lines
        assert captured.err == ""

    def test_script_error_returns_nonzero(self, kg_dir, tmp_path, capsys):
        empty_script = tmp_path / "empty.jsonl"
        empty_script.write_text("", encoding="utf-8")
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", "q?",
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(empty_script),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_script_flag_exits(self, kg_dir, capsys):
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", "q?",
                "--entities", "Q1490",
                "--provider", "scripted",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --script is required with --provider scripted\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--provider", "live"], "--endpoint and --model are required with --provider live"),
            (
                ["--provider", "live", "--endpoint", "http://localhost:9/v1"],
                "--endpoint and --model are required with --provider live",
            ),
            (
                ["--embedder", "http"],
                "--embed-endpoint and --embed-model are required for http embedder",
            ),
            (
                ["--embedder", "http", "--embed-model", "m"],
                "--embed-endpoint and --embed-model are required for http embedder",
            ),
        ],
    )
    def test_missing_live_client_flags_exit_2(
        self, kg_dir, tokyo_script_file, capsys, flags, message
    ):
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--script", str(tokyo_script_file),
                *flags,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--embed-dim", "1", "must be >= 2, got 1"),
            ("--embed-seed", "99999999999999999999",
             "must be <= 9223372036854775807, got 99999999999999999999"),
        ],
    )
    def test_embedder_flag_out_of_range_is_a_usage_error(
        self, kg_dir, tokyo_script_file, capsys, flag, value, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "ask",
                    "--kg", str(kg_dir),
                    "--question", TOKYO_QUESTION,
                    "--entities", "Q1490",
                    "--script", str(tokyo_script_file),
                    flag, value,
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entities", [" , ", ",", "  "])
    def test_no_entity_is_a_usage_error_before_any_provider(
        self, kg_dir, tokyo_script_file, tmp_path, capsys, entities
    ):
        cache = tmp_path / "cache.bin"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "ask",
                    "--kg", str(kg_dir),
                    "--question", TOKYO_QUESTION,
                    "--entities", entities,
                    "--provider", "scripted",
                    "--script", str(tokyo_script_file),
                    "--embed-cache", str(cache),
                ]
            )
        assert excinfo.value.code == 2
        assert "argument --entities: no entity id in" in capsys.readouterr().err
        assert not cache.exists()  # the providers and their cache were never built

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ({}, ["--max-iterations", "0"], "max_iterations must be >= 1"),
            ({}, ["--depth", "0"], "depth_limit must be >= 1"),
            ({"max_iter": 2}, [], "unexpected keyword argument 'max_iter'"),
            ({"action_retries": -1}, [], "action_retries must be >= 0"),
            ({"temperature": -0.5}, [], "temperature must be >= 0"),
            ({"max_tokens": 0}, [], "max_tokens must be >= 1"),
            ({"neighbor_limit": -1}, [], "neighbor_limit must be >= 0"),
            ({"question_timeout": -1}, [], "question_timeout must be >= 0"),
            ({}, ["--timeout", "-5"], "question_timeout must be >= 0"),
            ({"observation": {"top_n": 2.5}}, [], "top_n must be an integer, got 2.5"),
            ({"max_iterations": 1.5}, [], "max_iterations must be an integer, got 1.5"),
            ({"reflection": {"k_max": 2.5}}, [], "k_max must be an integer, got 2.5"),
            ({"neighbor_limit": 2.5}, [], "neighbor_limit must be an integer, got 2.5"),
            ({"path_max_len": True}, [], "path_max_len must be an integer, got True"),
            ({}, ["--timeout", "nan"], "question_timeout must be >= 0"),
            ({"temperature": float("nan")}, [], "temperature must be >= 0 and finite"),
            ({"temperature": float("inf")}, [], "temperature must be >= 0 and finite"),
            ({"random_seed": [1]}, [], r"random_seed must be an integer, got \[1\]"),
            ({"temperature": True}, [], "temperature must be a number, got True"),
            ({"question_timeout": True}, [], "question_timeout must be a number, got True"),
            (
                {"observation": {"refine_percent": True}}, [],
                "refine_percent must be a number, got True",
            ),
            ([], [], "top level must be a JSON object, got list"),
            ([["max_iterations", 1]], [], "top level must be a JSON object, got list"),
            (None, [], "top level must be a JSON object, got null"),
            ("x", [], "top level must be a JSON object, got str"),
            (3, [], "top level must be a JSON object, got int"),
            ({"observation": [["top_n", 2]]}, [], "observation must be a JSON object, got list"),
            ({"observation": None}, [], "observation must be a JSON object, got null"),
            ({"reflection": "oda"}, [], "reflection must be a JSON object, got str"),
        ],
    )
    def test_invalid_config_exits_before_any_provider_call(
        self, kg_dir, tmp_path, capsys, config, flags, message
    ):
        empty_script = tmp_path / "empty.jsonl"
        save_script([], empty_script)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config), encoding="utf-8")
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(empty_script),
                "--config", str(config_file),
                *flags,
            ]
        )
        assert code == 2  # a run would have failed on the empty script with code 1
        captured = capsys.readouterr()
        assert re.fullmatch(f"error: invalid agent config: .*{message}.*\n", captured.err)
        assert captured.out == ""


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "dataset.jsonl"
    record = {"question": TOKYO_QUESTION, "entities": ["Q1490"], "answers": ["Shinjuku"]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_embedding_cache_file_is_closed(
    kg_dir, tokyo_script_file, dataset_file, tmp_path, capsys, command
):
    cache = tmp_path / "cache.bin"
    if command == "ask":
        flags = ["--question", TOKYO_QUESTION, "--entities", "Q1490"]
    else:
        flags = ["--dataset", str(dataset_file)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(
            [
                command,
                "--kg", str(kg_dir),
                *flags,
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--embed-cache", str(cache),
            ]
        )
        gc.collect()
    assert code == 0
    assert cache.stat().st_size > 0
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_embedding_cache_file_is_closed_when_the_graph_fails_to_load(
    tokyo_script_file, tmp_path, capsys
):
    cache = tmp_path / "cache.bin"
    missing = tmp_path / "missing"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(
            [
                "ask",
                "--kg", str(missing),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--script", str(tokyo_script_file),
                "--embed-cache", str(cache),
            ]
        )
        gc.collect()
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert cache.stat().st_size == 0  # opened with the providers, before the graph
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestFlagsBeforeFiles:
    """A usage or config error exits 2 before --kg or --dataset is opened:
    both name missing paths here, so opening either would report that instead."""

    @pytest.mark.parametrize("command", ["ask", "eval"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--provider", "live"], "--endpoint and --model are required with --provider live"),
            (["--script", "{script}", "--max-iterations", "0"],
             "invalid agent config: max_iterations must be >= 1"),
            (["--script", "{script}", "--embedder", "http"],
             "--embed-endpoint and --embed-model are required for http embedder"),
        ],
        ids=["live-without-endpoint", "config", "http-embedder"],
    )
    def test_usage_error_is_reported_before_the_graph_is_read(
        self, tokyo_script_file, tmp_path, capsys, command, flags, message
    ):
        missing = tmp_path / "missing"
        if command == "ask":
            inputs = ["--question", "q", "--entities", "A"]
        else:
            inputs = ["--dataset", str(missing / "dataset.jsonl")]
        flags = [flag.format(script=tokyo_script_file) for flag in flags]
        code = main([command, "--kg", str(missing), *inputs, *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_sequence_script_with_workers_is_refused(self, tokyo_script_file, tmp_path, capsys):
        # one script cursor shared by concurrent questions would make the
        # answers depend on thread timing
        missing = tmp_path / "missing"
        code = main(
            [
                "eval",
                "--kg", str(missing),
                "--dataset", str(missing / "dataset.jsonl"),
                "--script", str(tokyo_script_file),
                "--workers", "2",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --workers > 1 needs --script-mode lookup with --provider scripted\n"
        )
        assert captured.out == ""

    def test_lookup_script_runs_with_workers(self, kg_dir, tmp_path, capsys):
        script = tmp_path / "lookup.jsonl"
        save_script(
            [
                ScriptEntry("substring", "Action History", "Action: Answer"),
                ScriptEntry("substring", "reference memory", "Answer: Shinjuku"),
            ],
            script,
        )
        dataset = tmp_path / "dataset.jsonl"
        record = {"question": TOKYO_QUESTION, "entities": ["Q1490"], "answers": ["Shinjuku"]}
        dataset.write_text((json.dumps(record) + "\n") * 2, encoding="utf-8")
        code = main(
            [
                "eval",
                "--kg", str(kg_dir),
                "--dataset", str(dataset),
                "--script", str(script),
                "--script-mode", "lookup",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "total=2 hits=2 accuracy=1.0000" in capsys.readouterr().out


class TestEval:
    def test_eval_writes_report(self, kg_dir, tokyo_script_file, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            json.dumps(
                {
                    "question": TOKYO_QUESTION,
                    "entities": ["Q1490"],
                    "answers": ["Shinjuku"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "evalout"
        code = main(
            [
                "eval",
                "--kg", str(kg_dir),
                "--dataset", str(dataset),
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--workers", "1",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "total=1 hits=1 accuracy=1.0000" in captured
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["hits"] == 1

    def test_config_file_overrides(self, kg_dir, tokyo_script_file, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            json.dumps(
                {"question": TOKYO_QUESTION, "entities": ["Q1490"], "answers": ["Shinjuku"]}
            )
            + "\n",
            encoding="utf-8",
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"max_iterations": 2, "observation": {"depth_limit": 1}}),
            encoding="utf-8",
        )
        code = main(
            [
                "eval",
                "--kg", str(kg_dir),
                "--dataset", str(dataset),
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert "hits=1" in capsys.readouterr().out


class TestInputErrors:
    """A malformed input file ends in one line on stderr and exit code 2."""

    def test_malformed_triples_file(self, tmp_path, capsys):
        (tmp_path / "triples.tsv").write_text("Q1\tP1\tQ2\nQ2\tP1\n", encoding="utf-8")
        assert main(["inspect", "--kg", str(tmp_path), "--entity", "Q1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {tmp_path / 'triples.tsv'}: line 2: expected 3 tab-separated fields, got 2\n"
        )
        assert captured.out == ""

    def test_malformed_labels_file_is_named(self, tmp_path, capsys):
        triples = tmp_path / "dump.tsv"
        triples.write_text("Q1\tP1\tQ2\n", encoding="utf-8")
        labels = tmp_path / "labels.tsv"
        labels.write_text("Q1\tone\tx\n", encoding="utf-8")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("Q1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "build-subgraph",
                "--triples", str(triples),
                "--labels", str(labels),
                "--seeds", str(seeds),
                "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {labels}: line 1: expected 2 tab-separated fields, got 3\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-subgraph", "--triples", "{kg}/triples.tsv", "--seeds", "{missing}",
             "--out", "{out}"],
            ["ask", "--kg", "{kg}", "--question", "q?", "--entities", "Q1490",
             "--script", "{missing}"],
            ["eval", "--kg", "{kg}", "--dataset", "{missing}", "--script", "{script}"],
            ["inspect", "--kg", "{missing}", "--entity", "Q1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_input_file(self, kg_dir, tokyo_script_file, tmp_path, capsys, argv):
        missing = tmp_path / "missing"
        names = {"kg": kg_dir, "script": tokyo_script_file, "missing": missing,
                 "out": tmp_path / "out"}
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_malformed_script_file(self, kg_dir, tmp_path, capsys):
        script = tmp_path / "s.jsonl"
        script.write_text("not json\n", encoding="utf-8")
        code = main(
            ["ask", "--kg", str(kg_dir), "--question", TOKYO_QUESTION, "--entities", "Q1490",
             "--script", str(script)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {script}: line 1: bad script entry: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_triples_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "triples.tsv"
        path.write_bytes(b"Q1\tP1\tQ2\nA\tr\t\xff\n")
        assert main(["inspect", "--kg", str(tmp_path), "--entity", "Q1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: line 2: not valid UTF-8\n"
        assert captured.out == ""

    def test_dataset_file_not_utf8(self, kg_dir, tokyo_script_file, tmp_path, capsys):
        record = json.dumps({"question": "q", "entities": ["A"], "answers": ["B"]}).encode()
        # the bad line first, then after a valid record
        for number, data in [(1, b'{"question": "\xff"}\n'), (2, record + b"\n\xff\n")]:
            dataset = tmp_path / f"dataset{number}.jsonl"
            dataset.write_bytes(data)
            code = main(
                ["eval", "--kg", str(kg_dir), "--dataset", str(dataset),
                 "--script", str(tokyo_script_file), "--out", str(tmp_path / "out")]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {dataset}: line {number}: not valid UTF-8\n"
            assert captured.out == ""
            assert not (tmp_path / "out").exists()

    def test_seeds_file_not_utf8(self, kg_dir, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_bytes(b"Q1490\n\xff\n")
        out = tmp_path / "sub"
        code = main(
            ["build-subgraph", "--triples", str(kg_dir / "triples.tsv"), "--seeds", str(seeds),
             "--k", "1", "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {seeds}: line 2: not valid UTF-8\n"
        assert captured.out == ""
        assert not out.exists()

    def test_script_file_not_utf8(self, kg_dir, tmp_path, capsys):
        script = tmp_path / "s.jsonl"
        script.write_bytes(b'{"match": "a", "response": "b"}\n{"match": "\xff", "response": "b"}\n')
        code = main(
            ["ask", "--kg", str(kg_dir), "--question", TOKYO_QUESTION, "--entities", "Q1490",
             "--script", str(script)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {script}: line 2: not valid UTF-8\n"
        assert captured.out == ""

    def test_malformed_script_record(self, kg_dir, tmp_path, capsys):
        script = tmp_path / "s.jsonl"
        script.write_text('{"match": "Agent", "response": 5}\n', encoding="utf-8")
        code = main(
            ["ask", "--kg", str(kg_dir), "--question", TOKYO_QUESTION, "--entities", "Q1490",
             "--script", str(script)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {script}: line 1: bad script entry: match and response must be strings\n"
        )
        assert captured.out == ""

    def test_dataset_record_without_entities(self, kg_dir, tokyo_script_file, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        record = {"question": TOKYO_QUESTION, "entities": [], "answers": ["Shinjuku"]}
        dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = main(
            [
                "eval",
                "--kg", str(kg_dir),
                "--dataset", str(dataset),
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: line 1: bad dataset record: entities must be non-empty\n"
        )

    def test_dataset_record_with_an_empty_entity_id(
        self, kg_dir, tokyo_script_file, tmp_path, capsys
    ):
        dataset = tmp_path / "dataset.jsonl"
        good = {"question": TOKYO_QUESTION, "entities": ["Q1490"], "answers": ["Shinjuku"]}
        bad = {"question": "q?", "entities": ["Q1490", ""], "answers": ["B"]}
        dataset.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["eval", "--kg", str(kg_dir), "--dataset", str(dataset),
             "--script", str(tokyo_script_file), "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {dataset}: line 2: bad dataset record: entities must not hold an empty id\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_truncated_embedding_cache(self, kg_dir, tokyo_script_file, tmp_path, capsys, caplog):
        cache = tmp_path / "cache.bin"
        cache.write_bytes(b"\x05\x00\x00\x00ab")  # a 5-byte text cut after 2 bytes
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--embed-cache", str(cache),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        assert caplog.messages == [f"dropped a truncated cache record at byte 0 in {cache}"]
        with EmbeddingCache(cache) as reloaded:  # the torn record is gone; this run's records load
            assert reloaded.get(TOKYO_QUESTION) is not None

    @pytest.mark.parametrize(
        "bad, refusal",
        [((float("nan"), 1.0),
          "a vector that is empty, over 2**23 long or has a component beyond 2**500"),
         ((1.0, 0.0, 0.0), "a vector of dimension 3, not 2")],
        ids=["nan", "another-dimension"],
    )
    def test_embedding_cache_record_outside_the_bound(
        self, kg_dir, tokyo_script_file, tmp_path, capsys, bad, refusal
    ):
        cache = tmp_path / "cache.bin"
        with open(cache, "wb") as handle:  # put_many would refuse the second record
            frozen_put(handle, "r a", (1.0, 0.0))
            frozen_put(handle, "r b", bad)
        whole = cache.read_bytes()
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--embed-cache", str(cache),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: the record at byte 27 in {cache} holds {refusal}\n"
        assert captured.out == ""
        assert cache.read_bytes() == whole

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one(self, kg_dir, tokyo_script_file, dataset_file, capsys, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "eval",
                    "--kg", str(kg_dir),
                    "--dataset", str(dataset_file),
                    "--provider", "scripted",
                    "--script", str(tokyo_script_file),
                    "--workers", workers,
                ]
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --workers: must be >= 1, got {workers}" in captured.err
        assert captured.out == ""

    def test_config_file_that_is_not_json(self, kg_dir, tokyo_script_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"max_iterations": 2,', encoding="utf-8")
        code = main(
            [
                "ask",
                "--kg", str(kg_dir),
                "--question", TOKYO_QUESTION,
                "--entities", "Q1490",
                "--provider", "scripted",
                "--script", str(tokyo_script_file),
                "--config", str(config),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: invalid agent config: .+: line 1 column 22.*\n", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--dataset", "--script", "--config"])
    def test_json_nested_too_deeply(
        self, kg_dir, tokyo_script_file, dataset_file, tmp_path, capsys, flag
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        files = {"--dataset": dataset_file, "--script": tokyo_script_file, flag: deep}
        argv = ["eval", "--kg", str(kg_dir)]
        for name, path in files.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        where = {
            "--dataset": f"{deep}: line 1: bad dataset record",
            "--script": f"{deep}: line 1: bad script entry",
            "--config": "invalid agent config",
        }[flag]
        assert captured.err.startswith(f"error: {where}: maximum recursion depth exceeded")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestInspect:
    def test_lists_neighbors_with_labels(self, kg_dir, capsys):
        code = main(["inspect", "--kg", str(kg_dir), "--entity", "Q1490"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Q1490 (Tokyo): 4 triples" in captured
        assert "(Tokyo, capital, Shinjuku)" in captured
        assert captured == (
            "Q1490 (Tokyo): 4 triples\n"
            "  Q1490\tP31\tQ50337\t(Tokyo, instance of, prefecture of Japan)\n"
            "  Q1490\tP36\tQ192724\t(Tokyo, capital, Shinjuku)\n"
            "  Q1490\tP36\tQ17\t(Tokyo, capital, Japan)\n"
            "  Q1490\tP17\tQ17\t(Tokyo, country, Japan)\n"
        )

    def test_negative_limit_is_a_usage_error(self, kg_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", "--kg", str(kg_dir), "--entity", "Q1490", "--limit", "-1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --limit: must be >= 0, got -1" in captured.err
        assert captured.out == ""
