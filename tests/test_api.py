from __future__ import annotations

import ast
import contextlib
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import csskit
from csskit import jsonio

from conftest import exec_world_doc
from test_documents import offer_doc, request_doc

ROOT = Path(__file__).parents[1]


def _oldest_supported() -> tuple[int, int]:
    """The ``requires-python`` floor of ``pyproject.toml``."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))

#: public names deleted because nothing in the package, the benchmark or the CLI needed them
DELETED = (
    "DISJOINT_CLASS",
    "ExecuteOptions",
    "SimulatedClock",
    "canonicalize_unit",
    "class_relation",
    "conjoin",
    "evaluate_expression",
    "expression_to_text",
    "normal_form_to_expression",
    "resolve_capability",
    "satisfiable",
    "world_to_doc",
)


def test_every_exported_name_resolves():
    missing = [name for name in csskit.__all__ if not hasattr(csskit, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(csskit.__all__) == len(set(csskit.__all__))


def test_deleted_names_are_not_exported():
    assert [name for name in DELETED if name in csskit.__all__ or hasattr(csskit, name)] == []


def test_the_client_has_no_test_only_paths():
    """Tests send raw lines through ``conftest``'s wires, not through a client."""
    from csskit.protocol import SkillClient

    assert [name for name in ("send_raw", "next_stray") if hasattr(SkillClient, name)] == []


def test_package_imports_only_the_standard_library():
    """csskit is stdlib-only: every absolute import (``__future__`` among them)
    names a standard module."""
    paths = sorted(Path(csskit.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_parses_at_the_oldest_supported_python():
    """No module uses syntax newer than ``requires-python`` allows, such as
    ``except*`` (3.11) or a ``type`` statement (3.12)."""
    oldest = _oldest_supported()
    refused = []
    for path in sorted(Path(csskit.__file__).parent.glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
        except SyntaxError as exc:
            refused.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert refused == []


#: builds a world, plans and executes its product over loopback, selects
#: offers and reads a number past the digit bound; prints what each step gave
SMOKE_SCRIPT = """
import sys
from csskit import jsonio
from csskit.documents import (
    build_world, load_document_file, offer_from_doc, product_from_doc, request_from_doc,
)
from csskit.errors import ParseError
from csskit.hosting import build_resource_host
from csskit.market import select_offers
from csskit.orchestrate import execute_plan, plan, trace_to_lines
from csskit.protocol import connect_loopback
from csskit.values import parse_timestamp

world_file, product_file, request_file, *offer_files = sys.argv[1:]
world = build_world([load_document_file(world_file)])
production_plan = plan(product_from_doc(load_document_file(product_file), world), world)
clients = {r.id: connect_loopback(build_resource_host(world, r.id)) for r in world.resources}
for client in clients.values():
    client.hello()
trace = execute_plan(production_plan, clients)
request = request_from_doc(load_document_file(request_file), world)
offers = [offer_from_doc(load_document_file(path), world) for path in offer_files]
award = select_offers(request, offers, parse_timestamp("2026-08-10T00:00:00Z"), world)
try:
    jsonio.loads("9" * (jsonio.MAX_INT_DIGITS + 1))
    refused = None
except ParseError as exc:
    refused = exc.message
print(jsonio.dumps_utf8({
    "skills": [entry.skill_id for entry in production_plan.entries],
    "trace": trace_to_lines(trace),
    "award": [list(award.offer_ids()), award.total_cost, award.strategy],
    "refused": refused,
}))
"""


def _other_interpreters(oldest) -> dict:
    """(major, minor) -> a Python of that version at or above ``oldest``,
    other than the running one, that can run ``-c pass``: pyenv's builds
    under ``$PYENV_ROOT/versions`` first, then ``python3.N`` on ``PATH``."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [
        (tuple(map(int, match.groups())), str(path))
        for path in sorted(versions.glob("*/bin/python3"))
        if (match := re.fullmatch(r"(\d+)\.(\d+)\.\d+", path.parents[1].name))
    ]
    candidates += [((3, minor), f"python3.{minor}") for minor in range(oldest[1], 20)]
    found: dict = {}
    for version, python in candidates:
        if version < oldest or version == sys.version_info[:2] or version in found:
            continue
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            if subprocess.run([python, "-c", "pass"], capture_output=True,
                              timeout=10).returncode == 0:
                found[version] = python
    return found


def test_the_package_runs_on_every_supported_python_found(tmp_path):
    """A plan, a loopback run, an offer selection and the digit bound give
    the same output on each installed Python at or above the
    ``requires-python`` floor as on the running one."""
    interpreters = _other_interpreters(_oldest_supported())
    if not interpreters:
        pytest.skip("no other Python at or above the requires-python floor is installed")
    doc = exec_world_doc()
    offer_b = {**offer_doc(), "offerId": "off-8", "coveredCapKeys": ["cap-screw"],
               "providedCapabilities": {"cap-screw": "Screwing"},
               "unitPrice": Decimal("0.40"), "exclusiveGroup": "lot-b"}
    paths = []
    for name, document in (
        ("world", doc), ("product", {"schema": "css.product/1", **doc["products"][0]}),
        ("request", request_doc()), ("offer-a", offer_doc()), ("offer-b", offer_b),
    ):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(jsonio.dumps_utf8(document), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {
        version: subprocess.Popen([python, "-c", SMOKE_SCRIPT, *map(str, paths)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for version, python in {sys.version_info[:2]: sys.executable, **interpreters}.items()
    }
    outputs = {version: run.communicate(timeout=60) for version, run in runs.items()}
    expected = outputs.pop(sys.version_info[:2])
    assert expected[1] == b""
    record = jsonio.loads(expected[0].decode("utf-8"))
    assert record["skills"] == ["skill-drill-a", "skill-screw"]
    assert record["award"] == [["off-7", "off-8"], Decimal("14.70"), "exact"]
    assert record["refused"] == "integer literal has 4301 digits, more than 4300"
    assert outputs == {version: expected for version in outputs}


def test_only_jsonio_writes_json_without_escaping_lone_surrogates():
    """Every other module writes JSON through ``jsonio.dumps_utf8``, whose
    text encodes to UTF-8; ``jsonio.dumps`` leaves a lone surrogate raw."""
    callers = []
    for path in sorted(Path(csskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "dumps" and path.stem != "jsonio":
                callers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "dumps" for a in node.names):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_only_jsonio_reads_or_writes_json_with_the_json_module():
    """How JSON text is read (numbers, constants, repeated keys) and written
    is decided in ``jsonio`` alone; no other module imports ``json``."""
    importers = []
    for path in sorted(Path(csskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [
                node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            if path.stem != "jsonio" and any(n.split(".")[0] == "json" for n in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def _module_level_imports(tree):
    """Import statements of a module body and of its top-level ``if`` blocks
    (``if TYPE_CHECKING:``); imports inside functions or classes are left out."""
    for node in tree.body:
        for statement in node.body + node.orelse if isinstance(node, ast.If) else [node]:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                yield statement


def test_every_module_import_is_used():
    """Each module-level import of a package module (``__init__`` re-exports,
    so it is left out) is used in its module, or its line says why not with
    ``# noqa: F401 - reason``."""
    paths = sorted(Path(csskit.__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound in used or re.search(r"# noqa: F401 - \S", lines[alias.lineno - 1]):
                    continue
                unused.append(f"{path.name}:{alias.lineno}: {bound}")
    assert unused == []


#: package modules built on the data model, which ``model`` must not import
ABOVE_MODEL = {
    "matching", "market", "skills", "protocol", "hosting", "orchestrate", "documents", "cli",
}


def test_model_imports_no_layer_above_it():
    """``model``'s module-level and ``TYPE_CHECKING`` imports name no module
    that is built on it."""
    source = (Path(csskit.__file__).parent / "model.py").read_text(encoding="utf-8")
    imported = set()
    for node in _module_level_imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:  # "from . import x" names module x, "from .x import y" module x
            module = ".".join(filter(None, ["csskit" if node.level else "", node.module]))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        imported.update(name.split(".")[1] for name in names if name.startswith("csskit."))
    assert sorted(imported & ABOVE_MODEL) == []
    assert "expressions" in imported  # the walk sees relative imports
