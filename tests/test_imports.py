"""Module boundaries of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcransim"


def sibling_private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that a module imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "hcransim":
                continue
            parts = module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for alias in node.names if alias.name.startswith("hcransim.")
                     for p in alias.name.split(".")]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {p}" for p in parts if p.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    offenders = [hit for path in paths for hit in sibling_private_imports(path)]
    assert offenders == []


def test_private_import_check_flags_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "from .experiments import run_se_sweep, _schedule\n"
        "from hcransim.beamforming import _Secular\n"
        "from . import _private\n"
        "import hcransim._hidden\n"
        "from collections import _chain\n"
    )
    assert sibling_private_imports(sample) == [
        "sample.py:2 _schedule",
        "sample.py:3 _Secular",
        "sample.py:4 _private",
        "sample.py:5 _hidden",
    ]
