"""Every sweep row of the benchmark's panel drops, pinned bit for bit.

``tests/data/panel_rows.json`` holds the rows of all panel drops of
``bench/workloads.py``, and ``panel_rows_env.json`` beside it the numpy and
BLAS they were computed with; ``tests/data/record_panel_rows.py`` rewrites
both. A change that moves a row on purpose rewrites the files and logs the
table this test prints.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


def load_recorder():
    path = DATA / "record_panel_rows.py"
    spec = importlib.util.spec_from_file_location("record_panel_rows", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_panel_rows_are_unchanged():
    """Compared exactly: the refactors these rows guard keep every float bit
    for bit. A rounding-level tie in the RTD descent guard can move beams by
    about 1e-12, so a change to the design's arithmetic may move rows; the
    printed table says which drops and by how much, and the message names
    the environment the rows were recorded in and the one they ran in, so
    that drift across numpy or BLAS builds shows as such."""
    recorder = load_recorder()
    recorded = json.loads(recorder.ROWS.read_text())
    recorded_env = json.loads(recorder.ENV.read_text())
    current = recorder.panel_rows()
    assert len({tuple(row[:2]) for row in current}) == 129
    if current != recorded:
        table = recorder.changes(recorded, current) or ["same rows, in another order"]
        pytest.fail("\n".join([
            "panel rows moved:", *table,
            f"recorded with: {json.dumps(recorded_env)}",
            f"run with: {json.dumps(recorder.environment())}",
        ]))


def test_the_workflow_pins_the_numpy_the_rows_were_recorded_with():
    workflow = (DATA.parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    recorded_env = json.loads(load_recorder().ENV.read_text())
    assert re.findall(r"numpy==([\w.]+)", workflow) == [recorded_env["numpy"]]
    assert re.search(r"OPENBLAS_NUM_THREADS: \"1\"", workflow)


def test_changes_names_each_moved_metric_and_its_largest_relative_change():
    recorder = load_recorder()
    was = [
        ["w", 0, 5, "a", 2.0, 0.0, 1],
        ["w", 1, 5, "a", 4.0, 0.0, 1],
        ["w", 1, 5, "b", 1.0, 0.0, 1],
        ["v", 0, 3, "a", 1.0, 0.0, 1],
    ]
    now = [
        ["w", 0, 5, "a", 2.0, 0.0, 1],
        ["w", 1, 5, "a", 3.0, 0.0, 1],
        ["w", 1, 5, "c", 1.0, 0.0, 1],
        ["v", 0, 3, "a", 1.0, 0.0, 2],
    ]
    assert recorder.changes(was, now) == [
        "v a: drops [0] moved, largest relative change inf",
        "w a: drops [1] moved, largest relative change 0.25",
        "w b: drops [1] moved, largest relative change inf",
        "w c: drops [1] moved, largest relative change inf",
    ]
    assert recorder.changes(was, was[::-1]) == []
