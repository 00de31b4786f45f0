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


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id] + attrs[::-1]) if isinstance(node, ast.Name) else None


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads: a bound name (``import a.b``
    binds ``a.b``) that no ``Name`` or ``Attribute`` chain starts with."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = set()
    for node in ast.walk(tree):
        parts = (_dotted(node) or "").split(".")
        read.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n not in read]
    return found


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert len(paths) >= 8
    offenders = [hit for path in paths for hit in unused_imports(path)]
    assert offenders == []


def test_unused_import_check_flags_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import math, os\n"
        "import numpy as np\n"
        "import concurrent.futures\n"
        "import xml.dom\n"
        "from .beamforming import rtd_solve, solve_qcqp as solve\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return math.pi, np.zeros, concurrent.futures.wait, xml.sax, solve\n"
    )
    assert unused_imports(sample) == [
        "sample.py:2 os",
        "sample.py:5 xml.dom",
        "sample.py:6 rtd_solve",
        "sample.py:8 dumps",
    ]


def dead_definitions(package: Path) -> list[str]:
    """Module-level functions and classes of a package that no module reads
    and its ``__init__.py`` does not export. A name counts as read wherever
    a ``Name`` loads it or an attribute chain ends in it, in any module, its
    own included; matching is by name alone, so a dead definition that
    shares its name with a live one passes."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.glob("*.py"))}
    read = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                read.update(alias.name for alias in node.names)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name not in read
    ]


def test_no_module_level_definition_goes_unread_and_unexported():
    assert len(list(SRC.glob("*.py"))) >= 8
    assert dead_definitions(SRC) == []


def test_dead_definition_check_flags_every_form(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported(): pass\n"
        "def called(): pass\n"
        "def dead(): return dead_local\n"
        "class Used: pass\n"
        "class Dead(Used): pass\n"
        "def _private(): pass\n"
        "def by_attribute(): pass\n"
        "def stored(): pass\n"
        "x = Used()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import called, stored\n"
        "stored = 1\n"
        "def main():\n"
        "    return a.by_attribute(), called()\n"
    )
    assert dead_definitions(tmp_path) == [
        "a.py:3 dead",
        "a.py:5 Dead",
        "a.py:6 _private",
        "a.py:8 stored",
        "b.py:4 main",
    ]
