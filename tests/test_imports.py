"""Module boundaries of the package source."""

import ast
import dataclasses
import inspect
from pathlib import Path

import hcransim

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


def _is_record(cls: ast.ClassDef) -> bool:
    """A class whose annotated body names are fields: a dataclass (however
    the decorator is spelled) or a NamedTuple."""
    decorators = [_dotted(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list]
    bases = [_dotted(b) for b in cls.bases]
    return (any(d and d.split(".")[-1] == "dataclass" for d in decorators)
            or any(b and b.split(".")[-1] == "NamedTuple" for b in bases))


def dead_methods(package: Path, *readers: Path) -> list[str]:
    """Methods of a package's classes, properties and cached properties
    included, and fields of its dataclasses and NamedTuples, that no
    attribute load ``.name`` reads in the package or in the reader
    directories. Dunders are exempt; matching is by name alone, as in
    ``dead_definitions``."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.glob("*.py"))}
    reader_trees = [
        ast.parse(p.read_text(), filename=str(p))
        for folder in readers for p in sorted(folder.glob("*.py"))
    ]
    read = {
        node.attr
        for tree in [*trees.values(), *reader_trees]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and _is_record(cls)):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in read:
                    found.append(f"{path.name}:{node.lineno} {cls.name}.{name}")
    return found


def test_no_method_or_property_goes_unread():
    root = SRC.parents[1]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert dead_methods(SRC, root / "tests", root / "bench") == []


def test_dead_method_check_flags_every_form(tmp_path):
    package, readers = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    readers.mkdir()
    (package / "a.py").write_text(
        "from functools import cached_property\n"
        "class Scene:\n"
        "    def __init__(self): self.table = {}\n"
        "    def schedule(self): return self._entry()\n"
        "    def _entry(self): return self.table\n"
        "    def _searched(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @cached_property\n"
        "    def links(self): return 2\n"
        "    @staticmethod\n"
        "    def helper(): pass\n"
        "    def stored(self): pass\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def deep(self): pass\n"
        "def use(scene):\n"
        "    scene.stored = None\n"
        "    return Scene.helper, 'links'\n"
    )
    (readers / "test_a.py").write_text("def test(scene): assert scene.schedule() and scene.size\n")
    assert dead_methods(package, readers) == [
        "a.py:6 Scene._searched",
        "a.py:10 Scene.links",
        "a.py:13 Scene.stored",
        "a.py:16 Inner.deep",
    ]


def test_dead_method_check_flags_unread_fields(tmp_path):
    package, readers = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    readers.mkdir()
    (package / "a.py").write_text(
        "import dataclasses\n"
        "import typing\n"
        "from dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n"
        "@dataclass\n"
        "class Config:\n"
        "    size: int = 1\n"
        "    spare: int = 2\n"
        "    HEADER = ('size',)\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    kept: list = field(default_factory=list)\n"
        "    dropped: float = 0.0\n"
        "@dataclasses.dataclass\n"
        "class Spelled:\n"
        "    lost: int\n"
        "class Design(NamedTuple):\n"
        "    bound: dict\n"
        "    unread: dict\n"
        "class Typed(typing.NamedTuple):\n"
        "    unpacked: int\n"
        "class Plain:\n"
        "    note: str = ''\n"
        "def use(config, frozen, design):\n"
        "    config.spare = 3\n"
        "    bound, unread = design\n"
        "    return config.size, frozen.kept, Config.HEADER, 'dropped', bound\n"
    )
    (readers / "b.py").write_text("def read(design): return design.bound\n")
    assert dead_methods(package, readers) == [
        "a.py:8 Config.spare",
        "a.py:13 Frozen.dropped",
        "a.py:16 Spelled.lost",
        "a.py:19 Design.unread",
        "a.py:21 Typed.unpacked",
    ]


def json_reads(path: Path) -> list[str]:
    """Every call of ``json.load`` or ``json.loads`` in a module, by
    attribute or by a name imported from ``json``, as "<file> <enclosing
    function> <call>" (the function is "-" at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("load", "loads")
    }
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = _dotted(child.func) if isinstance(child, ast.Call) else None
            if name in imported | {"json.load", "json.loads"}:
                found.append(f"{path.name} {where} {name}")
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if defines else where)

    visit(tree, "-")
    return found


def test_outside_input_is_parsed_by_one_json_reader():
    """Config and topology files are read by ``util.read_json_object``,
    which rejects repeated keys; no other code in the package parses JSON."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert [hit for path in paths for hit in json_reads(path)] == [
        "util.py read_json_object json.load"
    ]


def test_json_read_check_flags_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import json\n"
        "from json import loads as parse, dumps\n"
        "CONFIG = json.loads('{}')\n"
        "def read(path, text):\n"
        "    json.dump({}, open(path, 'w'))\n"
        "    def inner():\n"
        "        return parse(text)\n"
        "    return json.load(open(path)), inner(), dumps({})\n"
    )
    assert json_reads(sample) == [
        "sample.py - json.loads",
        "sample.py inner parse",
        "sample.py read json.load",
    ]


# Every defaulted parameter of an exported function, and every field of the
# three configs. A new option changes this table, so it is added on purpose.
DEFAULTED_PARAMETERS = {
    "monte_carlo_rates": ["trials"],
    "pathloss_gain": ["shadowing_db"],
    "psa_schedule": ["rng"],
    "rtd_solve": ["feas_tol"],
    "schedule_one": ["out_path"],
    "solve_qcqp": ["feas_tol", "mu0", "nu0"],
}
CONFIG_FIELDS = {
    "ScenarioConfig": [
        "num_rrh", "num_ue", "mbs_antennas", "rrh_antennas", "coverage_radius", "max_ue_per_rrh",
    ],
    "TrainingConfig": ["p_rue", "p_bue", "noise_power", "tau", "coherence"],
    "ExperimentConfig": [
        "scenario", "training", "budgets", "sweep_name", "sweep_values", "num_realizations",
        "schedulers", "beamformers", "output_path", "master_seed", "jobs",
    ],
}


def test_exported_options_are_the_pinned_ones():
    """No exported function gains a defaulted parameter and no config gains
    a field unless this table gains it too."""
    exported = {
        name: value for name, value in vars(hcransim).items()
        if inspect.isfunction(value) and not name.startswith("_")
    }
    assert {"sum_mse", "es_schedule", "rtd_solve"} <= exported.keys()
    defaulted = {}
    for name, function in exported.items():
        params = inspect.signature(function).parameters.values()
        found = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if found:
            defaulted[name] = found
    assert defaulted == DEFAULTED_PARAMETERS
    fields = {
        name: [f.name for f in dataclasses.fields(getattr(hcransim, name))] for name in CONFIG_FIELDS
    }
    assert fields == CONFIG_FIELDS
