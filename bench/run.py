#!/usr/bin/env python3
"""Benchmark of the bubblecross pipeline, one workload per process.

    python3 bench/run.py --workload export|recursion|worstcase \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: the library is imported from
the checkout's ``src`` directory.  A closed loop runs the workload's job
list (see workloads.py) pass after pass on one thread, starting a new
pass only while the passes are expected to total at most ``--seconds``;
at least one pass runs, two with ``--trace 1``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of fresh-interpreter imports of bubblecross.cli plus
input generation) and ``peak_rss_mb``.  ``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics from the traced
ones, including the tracing overhead; its spans and per-layer self-time
table go to ``.bench_out/spans_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; one job is one
operation, and a job whose output check fails counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import traceback
from itertools import cycle, repeat
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDENS = Path(__file__).resolve().with_name("goldens.json")

# Fresh-interpreter imports per round of set-up samples.  One round runs
# before the first pass and one after every pass, so the median spans the
# whole run, not only the machine's state in its first seconds.
SETUP_ROUND = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bubblecross.cli; "
    "print(time.perf_counter() - t)"
)

LAYERS = ("perms", "graphs", "mesh", "drawing", "bounds", "verify", "cli")


class SetupTimer:
    """Set-up samples: a fresh interpreter importing bubblecross.cli, then
    generating the workload's inputs in this process."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.cmd = [sys.executable, "-c", IMPORT_PROBE]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.totals: list[float] = []
        self.imports: list[float] = []
        self._fresh_import()  # writes the bytecode cache once, as an installed package has it

    def _fresh_import(self) -> float:
        done = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        return float(done.stdout)

    def sample(self, k: int) -> None:
        from workloads import make_inputs

        for _ in range(k):
            start = perf_counter()
            self.imports.append(self._fresh_import())
            make_inputs(self.workload, self.seed)
            self.totals.append(perf_counter() - start)


def run_pass(workload: str, inputs: dict, tracer, goldens: dict) -> dict:
    """One pass over the job list; a failing job is reported and skipped."""
    from workloads import Pass, CheckFailed, jobs

    p = Pass(tracer, goldens, inputs, OUT_DIR)
    first_span = len(tracer.spans)
    failed = []
    job_list = jobs(workload)
    start = perf_counter()
    with tracer.span(f"run.{workload}"):
        for name, job in job_list:
            with tracer.span(f"job.{name}"):
                try:
                    job(p)
                except CheckFailed as exc:
                    failed.append(name)
                    print(f"{workload}: job {name} failed: {exc}", file=sys.stderr)
                except Exception:
                    failed.append(name)
                    print(f"{workload}: job {name} raised:\n{traceback.format_exc()}",
                          file=sys.stderr)
    wall = perf_counter() - start
    return {"wall_s": wall, "attempted": len(job_list), "failed": failed,
            "counts": p.counts, "spans": tracer.spans[first_span:]}


def _busy(names: dict, *keys: str) -> float:
    return sum(names[k] for k in keys) / 1e9


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit)."""
    from spans import busy_by_name, layer_table

    names = busy_by_name(spans)
    table = layer_table(spans)
    roundtrip = _busy(names, "perms.perm_rank", "perms.perm_unrank")
    export = _busy(names, "graphs.to_dot", "graphs.to_json")
    exhaustive = _busy(names, "mesh.exhaustive_max")
    oracle = _busy(names, "mesh.oracle_crossings")
    generations = _busy(names, "drawing.run_generations")
    out = {
        "perms.roundtrip_s": (roundtrip, "s"),
        "perms.labels_per_s": (_rate(counts["perms.labels"], roundtrip), "1/s"),
        "graphs.build_s": (_busy(names, "graphs.build_bn", "graphs.build_bprime"), "s"),
        "graphs.export_s": (export, "s"),
        "graphs.export_mb_per_s": (_rate(counts["graphs.export_bytes"] / 1e6, export), "MB/s"),
        "graphs.symmetry_s": (_busy(names, "graphs.symmetry_classes"), "s"),
        "graphs.traverse_s": (_busy(names, "graphs.is_connected"), "s"),
        "graphs.vertices": (counts["graphs.vertices"], "count"),
        "graphs.edges": (counts["graphs.edges"], "count"),
        "mesh.exhaustive_s": (exhaustive, "s"),
        "mesh.sequences": (counts["mesh.sequences"], "count"),
        "mesh.sequences_per_s": (_rate(counts["mesh.sequences"], exhaustive), "1/s"),
        "mesh.oracle_s": (oracle, "s"),
        "mesh.ray_pairs": (counts["mesh.ray_pairs"], "count"),
        "mesh.ray_pairs_per_s": (_rate(counts["mesh.ray_pairs"], oracle), "1/s"),
        "mesh.formula_s": (_busy(names, "mesh.total_crossings", "mesh.sort_spec",
                                 "mesh.mesh_max"), "s"),
        "mesh.svg_s": (_busy(names, "mesh.mesh_svg"), "s"),
        "drawing.generations_s": (generations, "s"),
        "drawing.parents": (counts["drawing.parents"], "count"),
        "drawing.parents_per_s": (_rate(counts["drawing.parents"], generations), "1/s"),
        "drawing.distinct_share": (_rate(counts["drawing.distinct_parents"],
                                         counts["drawing.parents"]), "ratio"),
        "drawing.labeled_s": (_busy(names, "drawing.seed_labeled", "drawing.step_labeled"), "s"),
        "bounds.table_s": (_busy(names, "bounds.bound_table"), "s"),
        "bounds.serialize_s": (_busy(names, "bounds.table_csv", "bounds.table_json"), "s"),
        "bounds.rows": (counts["bounds.rows"], "count"),
        "bounds.digits": (counts["bounds.digits"], "count"),
        "verify.suite_s": (_busy(names, "verify.run_suite"), "s"),
        "cli.main_s": (_busy(names, "cli.main"), "s"),
    }
    for layer in LAYERS:
        row = table.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.calls"] = (row["calls"], "count")
    out["bench.self_s"] = (sum(table[k]["self_s"] for k in ("run", "job") if k in table), "s")
    out["trace.spans"] = (len(spans), "count")
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(workload: str, traced: list[dict]) -> dict:
    """Per-layer busy and self time of a mean traced pass, printed and returned."""
    from spans import layer_table

    wall = sum(p["wall_s"] for p in traced) / len(traced)
    table = layer_table([s for p in traced for s in p["spans"]])
    print(f"{workload}: self time per layer, mean of {len(traced)} traced passes "
          f"of {wall:.3f} s")
    print(f"{'layer':<8} {'busy_s':>9} {'self_s':>9} {'share':>7} {'calls':>9}")
    rows = {}
    for layer, row in table.items():
        busy, own, calls = (row["busy_s"] / len(traced), row["self_s"] / len(traced),
                            row["calls"] // len(traced))
        rows[layer] = {"busy_s": busy, "self_s": own, "share": own / wall, "calls": calls}
        print(f"{layer:<8} {busy:9.4f} {own:9.4f} {own / wall:7.1%} {calls:9d}")
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool, goldens: dict) -> dict:
    from spans import NullTracer, Tracer
    from workloads import make_inputs

    OUT_DIR.mkdir(exist_ok=True)
    setup = SetupTimer(workload, seed)
    setup.sample(SETUP_ROUND)
    inputs = make_inputs(workload, seed)
    modes = cycle((True, False)) if trace else repeat(False)
    tracer = Tracer()  # one for all traced passes, so span ids are unique in the run
    passes = []
    while True:
        gc.collect()
        traced = next(modes)
        passes.append(run_pass(workload, inputs, tracer if traced else NullTracer(), goldens))
        passes[-1]["traced"] = traced
        setup.sample(SETUP_ROUND)
        walls = [p["wall_s"] for p in passes]
        if len(passes) >= (2 if trace else 1) and sum(walls) + median(walls) > seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    wall_s = median(untraced)
    setup_s = median(setup.totals)
    print(f"{workload}: seed {seed}, {len(passes)} passes; wall_s {wall_s:.4f} s median of "
          f"{len(untraced)} untraced passes (min {min(untraced):.4f}, max {max(untraced):.4f}); "
          f"setup_s {setup_s:.4f} s median of {len(setup.totals)}; "
          f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    if not trace:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["spans"], p["counts"]) for p in traced_passes]
        metrics = {
            name: _metric(median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        metrics["graphs.rss_growth_mb"] = _metric(
            passes[0]["counts"]["graphs.rss_growth_kb"] / 1024, "MB")
        metrics["cli.failed"] = _metric(sum(p["counts"]["cli.failed"] for p in passes),
                                        "count")
        metrics["cli.import_s"] = _metric(median(setup.imports), "s")
        metrics["trace.overhead_s"] = _metric(
            median(p["wall_s"] for p in traced_passes) - wall_s, "s")
        layers = print_table(workload, traced_passes)
        dump = {
            "workload": workload,
            "seed": seed,
            "passes": [{"traced": p["traced"], "wall_s": p["wall_s"]} for p in passes],
            "layers": layers,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": [s for p in traced_passes for s in p["spans"]],
        }
        path = OUT_DIR / f"spans_{workload}.json"
        path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
        print(f"{workload}: wrote {len(dump['spans'])} spans to {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("export", "recursion", "worstcase"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bubblecross" / "__init__.py").is_file():
        print(f"error: no bubblecross package under {SRC}; run inside a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), goldens)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
