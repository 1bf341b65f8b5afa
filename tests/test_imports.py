"""Import hygiene: no module of the package, the tests or the demos imports a
name it never uses.  The package's ``__init__.py`` re-exports its names, so
it is exempt, and so are ``from __future__`` imports.  And only ``io.py``
touches files or knows a format: no other module opens a file or imports
``json`` or ``csv``, and no class lays itself out with a ``to_dict``.  And
every name the benchmark's tracer wraps still exists on the package.  And
only the keeper ``channel._readonly`` and the two classes that freeze
arrays they made themselves call ``setflags``."""

import ast
import importlib
from pathlib import Path

import squeeze_aba as sa

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/squeeze_aba", "tests", "demos")


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s import statements bind and nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "def f(x: d) -> None:\n    return np.log(x)\n")
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for folder in CHECKED:
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":
                continue
            names = unused_imports(path.read_text(encoding="utf-8"))
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


#: calls that read or write a file: the builtin, and the pathlib methods
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(source: str) -> list[str]:
    """The file-touching calls in ``source``, by name, in order."""
    names = (getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call))
    return [name for name in names if name in FILE_CALLS]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):  # ``from . import io`` names no module: its names are
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return {name.partition(".")[0] for name in names}


def layout_methods(source: str) -> list[str]:
    """``Class.to_dict`` for every class in ``source`` that defines one."""
    return [f"{node.name}.to_dict" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "to_dict"]


def test_the_file_checks_see_calls_and_imports():
    source = ("import json\nfrom csv import writer\nfrom .io import f\nfrom . import channel\n"
              "with open(p) as fh:\n    q.write_text(fh.read())\n"
              "class A:\n    def to_dict(self):\n        pass\n"
              "def to_dict(a):\n    pass\n")
    assert file_calls(source) == ["open", "write_text"]
    assert imported_modules(source) == {"json", "csv", "io", "channel"}
    assert layout_methods(source) == ["A.to_dict"]


def test_only_io_touches_files():
    package = ROOT / "src" / "squeeze_aba"
    found = {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        names = layout_methods(source)
        if path.name != "io.py":
            names += file_calls(source) + sorted(imported_modules(source) & {"json", "csv"})
        if path.name == "squeeze_select.py":  # the planner does not even import io
            names += sorted(imported_modules(source) & {"io"})
        if names:
            found[path.name] = names
    assert found == {}


def trace_targets() -> tuple:
    """``TARGETS`` of perfbench/tracing.py, read without importing the module."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))


def missing_trace_targets(package, targets) -> list[str]:
    """The (module path, attribute) targets that do not resolve on ``package``,
    walked as the benchmark's tracer walks them when it installs itself."""
    missing = []
    for _, where, attr in targets:
        owner = package
        for part in filter(None, where.split(".")):
            owner = getattr(owner, part, None)
        if getattr(owner, attr, None) is None:
            missing.append(".".join(filter(None, ("squeeze_aba", where, attr))))
    return missing


def test_every_trace_target_resolves():
    # the benchmark's traced runs wrap these names; a refactor that drops one
    # fails here rather than only where the benchmark runs
    importlib.import_module("squeeze_aba.cli")  # sa.cli, as the benchmark imports it
    targets = trace_targets()
    assert targets and missing_trace_targets(sa, targets) == []


def test_a_deleted_trace_target_is_reported(monkeypatch):
    importlib.import_module("squeeze_aba.cli")
    monkeypatch.delattr(sa.solvers, "build_squeeze_params")
    assert missing_trace_targets(sa, trace_targets()) == [
        "squeeze_aba.solvers.build_squeeze_params"]


#: the only functions that may freeze an array: the keeper every frozen object
#: copies through, and the two classes that freeze arrays made in their own body
FREEZERS = {"channel._readonly", "channel.ChannelMatrix.__post_init__",
            "waterfill.WaterfillResult.__post_init__"}


def setflags_callers(source: str, module: str) -> list[str]:
    """``module.qualname`` of the function around each ``setflags`` call in
    ``source``, or ``module`` for a call at module level, in order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "setflags":
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return found


def test_the_freeze_check_sees_every_setflags():
    source = ("a.setflags(write=False)\n"
              "def f(x):\n    x.setflags(write=False)\n"
              "class C:\n    def g(self):\n        def h():\n            self.p.setflags()\n")
    assert setflags_callers(source, "m") == ["m", "m.f", "m.C.g.h"]


def test_only_the_keeper_freezes():
    # a freeze made only so that a keeper can share the array, not copy it,
    # cannot come back unseen
    found = set()
    for path in sorted((ROOT / "src" / "squeeze_aba").glob("*.py")):
        found.update(setflags_callers(path.read_text(encoding="utf-8"), path.stem))
    assert found == FREEZERS
