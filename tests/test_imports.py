"""Import hygiene: no module of the package, the tests or the demos imports a
name it never uses.  The package's ``__init__.py`` re-exports its names, so
it is exempt, and so are ``from __future__`` imports."""

import ast
from pathlib import Path

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
