"""Command-line interface: build-subgraph, ask, eval, inspect."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .agent import AgentConfig, AgentError, Providers, render_case, run, trace_to_json
from .embedding import DeterministicEmbedder, EmbeddingCache, EmbeddingError, HttpEmbedder
from .evaluation import load_dataset, run_eval
from .kg import (
    InputError, extract_khop_subgraph, load_kg, load_triples, numbered_text_lines, save_kg,
)
from .llm import HttpChatConfig, HttpChatProvider, ScriptedProvider, load_script
from .reflection import STRATEGIES


class UsageError(Exception):
    """A flag or config value that the command cannot run with."""


def _build_config(args: argparse.Namespace) -> AgentConfig:
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
        config = AgentConfig.from_dict(data)
        flags = {"max_iterations": args.max_iterations, "random_seed": args.seed}
        overrides = {name: value for name, value in flags.items() if value is not None}
        if args.strategy:
            overrides["reflection"] = replace(config.reflection, strategy=args.strategy)
        if args.depth is not None:
            overrides["observation"] = replace(config.observation, depth_limit=args.depth)
        if args.timeout is not None:
            overrides["question_timeout"] = args.timeout or None
        return replace(config, **overrides)
    except (TypeError, ValueError, RecursionError) as exc:
        # TypeError: an unknown key or a mistyped value; RecursionError: JSON
        # nested too deeply to decode
        raise UsageError(f"invalid agent config: {exc}") from exc


def _build_providers(args: argparse.Namespace) -> Providers:
    if args.provider == "scripted":
        if not args.script:
            raise UsageError("--script is required with --provider scripted")
        llm = ScriptedProvider(load_script(args.script), sequential=args.script_mode == "sequence")
    else:
        if not args.endpoint or not args.model:
            raise UsageError("--endpoint and --model are required with --provider live")
        llm = HttpChatProvider(HttpChatConfig(args.endpoint, args.model, args.api_key_env))
    if args.embedder == "http":
        if not args.embed_endpoint or not args.embed_model:
            raise UsageError("--embed-endpoint and --embed-model are required for http embedder")
        embedder = HttpEmbedder(args.embed_endpoint, args.embed_model, args.api_key_env)
    else:
        embedder = DeterministicEmbedder(seed=args.embed_seed, dimension=args.embed_dim)
    return Providers(llm=llm, embedder=embedder, cache=EmbeddingCache(args.embed_cache))


def _int_range(minimum: int, maximum: int | None = None):
    """An argparse type: an int from minimum up to maximum (None: no upper bound)."""

    # argparse names the type in its error: "invalid integer value: 'x'"
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return integer


def _entity_list(text: str) -> list[str]:
    """An argparse type: comma-separated ids, at least one after blanks are dropped."""
    entities = [entity.strip() for entity in text.split(",") if entity.strip()]
    if not entities:
        raise argparse.ArgumentTypeError(f"no entity id in {text!r}")
    return entities


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("scripted", "live"), default="scripted")
    parser.add_argument("--script", help="script file for the scripted provider")
    parser.add_argument(
        "--script-mode", choices=("sequence", "lookup"), default="sequence",
        help="consume entries in order, or answer with the first match",
    )
    parser.add_argument("--endpoint", help="chat completions endpoint for --provider live")
    parser.add_argument("--model", help="model name for --provider live")
    parser.add_argument("--api-key-env", default="OPENAI_API_KEY")
    parser.add_argument("--embedder", choices=("deterministic", "http"), default="deterministic")
    parser.add_argument("--embed-seed", type=_int_range(-(2**63), 2**63 - 1), default=0)
    parser.add_argument("--embed-dim", type=_int_range(2), default=64)
    parser.add_argument("--embed-endpoint")
    parser.add_argument("--embed-model")
    parser.add_argument("--embed-cache", help="path for the persistent embedding cache")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with agent settings")
    parser.add_argument("--max-iterations", type=int)
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--depth", type=int, help="observation depth limit")
    parser.add_argument("--seed", type=int, help="rng seed for the random strategy")
    parser.add_argument("--timeout", type=float, help="per-question timeout in seconds (0 = off)")


def _cmd_build_subgraph(args: argparse.Namespace) -> int:
    seeds = [line.strip() for _, line in numbered_text_lines(args.seeds) if line.strip()]
    kg = load_triples(args.triples, args.labels)
    subgraph = extract_khop_subgraph(kg, seeds, args.k)
    save_kg(subgraph, args.out)
    print(f"wrote {len(subgraph)} triples for {len(seeds)} seeds to {args.out}")
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    config = _build_config(args)
    providers = _build_providers(args)
    try:
        kg = load_kg(args.kg)
        result = run(args.question, args.entities, kg, providers, config)
    except AgentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out:
            _write_trace(exc.trace, args.out)
        return 1
    finally:
        providers.cache.close()
    print(render_case(result.trace, kg), end="")
    print(f"halted_by: {result.halted_by}")
    if args.out:
        _write_trace(result.trace, args.out)
    return 0


def _write_trace(trace, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trace.json"
    path.write_text(trace_to_json(trace), encoding="utf-8", newline="\n")
    print(f"trace written to {path}")


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.provider == "scripted" and args.script_mode == "sequence" and args.workers > 1:
        # one script cursor shared by concurrent questions: the order, and so
        # the answers, would depend on thread timing
        raise UsageError("--workers > 1 needs --script-mode lookup with --provider scripted")
    config = _build_config(args)
    providers = _build_providers(args)
    try:
        kg = load_kg(args.kg)
        dataset = load_dataset(args.dataset)
        report = run_eval(
            dataset, kg, providers, config,
            workers=args.workers, out_dir=args.out, match_mode=args.match,
        )
    finally:
        providers.cache.close()
    print(f"total={report.total} hits={report.hits} accuracy={report.accuracy:.4f}")
    for outcome in report.outcomes:
        status = "hit " if outcome.hit else "miss"
        suffix = f" error={outcome.error}" if outcome.error else ""
        print(f"[{status}] q{outcome.index:05d} {outcome.question[:60]}{suffix}")
    if args.out:
        print(f"report written to {Path(args.out) / 'report.json'}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    kg = load_kg(args.kg)
    triples = kg.get_neighbors(args.entity, limit=args.limit)
    print(f"{args.entity} ({kg.label_of(args.entity)}): {len(triples)} triples")
    for triple in triples:
        print("  " + "\t".join(triple), kg.render_triple(triple), sep="\t")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgagent")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-subgraph", help="extract a k-hop subgraph from a TSV dump")
    build.add_argument("--triples", required=True)
    build.add_argument("--labels")
    build.add_argument("--seeds", required=True, help="file with one entity id per line")
    build.add_argument("--k", type=_int_range(1), default=3)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_build_subgraph)

    ask = sub.add_parser("ask", help="answer one question against a KG directory")
    ask.add_argument("--kg", required=True)
    ask.add_argument("--question", required=True)
    ask.add_argument(
        "--entities", required=True, type=_entity_list, help="comma-separated seed entity ids"
    )
    ask.add_argument("--out", help="directory for the trace file")
    _add_provider_flags(ask)
    _add_config_flags(ask)
    ask.set_defaults(func=_cmd_ask)

    evaluate = sub.add_parser("eval", help="run the evaluation harness over a dataset")
    evaluate.add_argument("--kg", required=True)
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--workers", type=_int_range(1), default=1)
    evaluate.add_argument("--out", help="directory for report.json and traces/")
    evaluate.add_argument("--match", choices=("normalized", "strict"), default="normalized")
    _add_provider_flags(evaluate)
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=_cmd_eval)

    inspect = sub.add_parser("inspect", help="show an entity's outgoing triples")
    inspect.add_argument("--kg", required=True)
    inspect.add_argument("--entity", required=True)
    inspect.add_argument("--limit", type=_int_range(0))
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InputError, EmbeddingError, OSError) as exc:
        # a usage or config error, or an input file that is malformed, not UTF-8
        # or cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
