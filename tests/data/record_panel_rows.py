"""Record every sweep row of the benchmark's panel drops to panel_rows.json.

Run from the root of the repository on the commit whose rows are the
reference:

    PYTHONPATH=src python3 tests/data/record_panel_rows.py

Each panel drop of ``bench/workloads.py`` (drop ``i`` has master seed ``i``)
runs through its public sweep, and each of its rows ``(sweep_value, metric,
mean, stderr, n)`` is stored on one line, after the workload and the drop
index. JSON writes floats by ``repr``, so the file reads back bit for bit.
``tests/test_panel_rows.py`` reruns the panels and compares; rewriting the
file is an output change. Beside the rows, ``panel_rows_env.json`` records
the environment they were computed in (``environment``): another numpy or
BLAS may sum in another order and move rows by rounding, so a failed
comparison names both environments.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy

ROWS = Path(__file__).resolve().parent / "panel_rows.json"
ENV = ROWS.with_name("panel_rows_env.json")
BENCH = Path(__file__).resolve().parents[2] / "bench"


def load_workloads():
    """``bench/workloads.py`` as a module, loaded by path (bench is no package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def panel_rows() -> list[list]:
    """Every panel drop's rows, one ``[workload, drop index, sweep_value,
    metric, mean, stderr, n]`` list per row, in panel and row order."""
    return [
        [w.name, i, *row]
        for w in load_workloads().WORKLOADS.values()
        for i in range(w.panel_size)
        for row in w.sweep(w.config(i)).rows
    ]


def environment() -> dict:
    """The numpy version and the name, version and build configuration of
    ``numpy.show_config()``'s BLAS entry."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    keys = ("name", "version", "openblas configuration")
    return {"numpy": numpy.__version__, "blas": {key: blas[key] for key in keys if key in blas}}


def changes(recorded: list, current: list) -> list[str]:
    """One line per workload and metric whose rows differ: the drops that
    moved and the largest relative change of a row's mean or stderr (inf
    for a row that only one side has, or a changed count n)."""
    was = {tuple(row[:4]): row[4:] for row in recorded}
    now = {tuple(row[:4]): row[4:] for row in current}
    moved = {}
    for key in was.keys() | now.keys():
        a, b = was.get(key), now.get(key)
        if a == b:
            continue
        if a is None or b is None or a[2] != b[2]:
            rel = float("inf")
        else:
            rel = max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a[:2], b[:2]) if x != y)
        name, index, _, metric = key
        drops, worst = moved.get((name, metric), (set(), 0.0))
        moved[name, metric] = drops | {index}, max(worst, rel)
    return [
        f"{name} {metric}: drops {sorted(drops)} moved, largest relative change {worst:.3g}"
        for (name, metric), (drops, worst) in sorted(moved.items())
    ]


def main() -> int:
    rows = panel_rows()
    ROWS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    ENV.write_text(json.dumps(environment(), indent=1) + "\n")
    print(f"{len(rows)} rows of {len({tuple(row[:2]) for row in rows})} drops written to {ROWS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
