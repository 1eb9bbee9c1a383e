"""Record each workload's trace digest and Hits@1 for a range of seeds.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-24 [--workload hub-oda]

Runs one untraced pass per workload and seed, checks it against the planted
answers, and writes ``perfbench/expected.json``, which the correctness gate
in ``run.py`` compares every run with. Re-record only for a change that
alters agent traces on purpose, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-24")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    root = Path.cwd()
    run.import_program(root)
    from kgagent import evaluation, kg

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for name in [args.workload] if args.workload else list(WORKLOADS):
        for seed in range(first, last + 1):
            work = run.prepare(root, name, seed)
            try:
                graph = kg.load_kg(work.directory)
                dataset = evaluation.load_dataset(work.directory / "dataset.jsonl")
                result = run.run_pass(work, graph, dataset, traced=False)
            finally:
                shutil.rmtree(work.directory, ignore_errors=True)
            problems = run.check(work, [result], {})
            if problems:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
            expected.setdefault(name, {})[str(seed)] = {
                "digest": result.digest,
                "hits_at_1": sum(result.hits) / len(result.hits),
            }
            print(f"{name} seed {seed}: {result.digest}", flush=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
