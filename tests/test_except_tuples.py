"""Handler hygiene: no ``except`` tuple in the package lists a class together
with one of its bases, since the base already catches the subclass.  Names
resolve in the module's own namespace, so an imported alias counts."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squeeze_aba"


def redundant_handlers(source: str, namespace: dict) -> list[str]:
    """``line N: A is a B`` for each pair of an ``except`` tuple where A is B
    or subclasses it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            classes = [eval(ast.unparse(elt), namespace) for elt in node.type.elts]
            for i, a in enumerate(classes):
                for b in classes[:i] + classes[i + 1:]:
                    if issubclass(a, b):
                        found.append(f"line {node.lineno}: {a.__name__} is a {b.__name__}")
    return found


def test_the_check_sees_a_class_beside_its_base():
    source = ("try:\n    pass\nexcept (KeyError, LookupError, OSError):\n    pass\n"
              "try:\n    pass\nexcept (ValueError, E):\n    pass\n")
    namespace = {"E": type("E", (TypeError,), {})}
    assert redundant_handlers(source, namespace) == ["line 3: KeyError is a LookupError"]


def test_no_handler_lists_a_class_with_its_base():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "squeeze_aba" if path.stem == "__init__" else f"squeeze_aba.{path.stem}"
        module = importlib.import_module(name)
        pairs = redundant_handlers(path.read_text(encoding="utf-8"), vars(module))
        if pairs:
            found[path.name] = pairs
    assert found == {}
