"""docidlm benchmark entry point.

Run from the repository root:

    python3 bench/run.py --workload retrieve-20k --seed 1 --seconds 12 --trace 0

It generates the workload's inputs from the seed, sets the engine up from
the sources under ``src/``, decodes queries for ``--seconds`` seconds in a
closed loop with one client, checks every output, and prints one metric per
line followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run. A full record of the run goes to
``bench/out/BENCH_<workload>_seed<n>_trace<t>.json``, and with tracing the
spans go to ``bench/out/trace_<workload>_seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _line(name: str, row: tuple) -> str:
    value, unit, detail = row
    shown = "not measured" if value is None else f"{value:.6g}"
    return f"{name:<40} {shown:>14} {unit:<6} {detail}"


def _json_metrics(rows: dict) -> dict:
    metrics = {}
    for name, (value, unit, detail) in rows.items():
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["note"] = detail
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "docidlm" / "__init__.py").is_file():
        print(f"bench/run.py: no docidlm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs docidlm on the path

    if args.workload not in harness.WORKLOADS:
        print(f"bench/run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        run = harness.execute(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    label = f"{args.workload}_seed{args.seed}"
    stamp = harness.stamp(ROOT)
    e2e = harness.end_to_end(run)
    plain = harness.plain(run)
    layers = harness.per_layer(run) if run.trace else {}

    print(f"docidlm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, row in {**e2e, **plain, **layers}.items():
        print(_line(name, row))
    print(f"{'ops_failed':<40} {len(run.failures):>14} count  of ops_attempted={run.attempted}")
    for failure in run.failures[:5]:
        print(f"  failed: {failure}")
    for name, value in run.quality.items():
        print(f"{name:<40} {value:>14.6g} ratio  over the reference decodes")
    print(f"digest sha256:{run.digest} over {run.counts['reference_decodes']} reference decodes")
    print("counts " + json.dumps(run.counts, sort_keys=True))

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": _json_metrics(layers if run.trace else e2e),
    }
    record = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp,
        "end_to_end": _json_metrics(e2e), "plain": _json_metrics(plain),
        "per_layer": _json_metrics(layers), "quality": run.quality,
        "digest": run.digest, "counts": run.counts, "failures": run.failures,
        "samples": [[query_id, mode, seconds] for query_id, mode, seconds in run.samples],
    }
    with open(OUT_DIR / f"BENCH_{label}_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if run.trace:
        run.tracer.write(OUT_DIR / f"trace_{label}.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
