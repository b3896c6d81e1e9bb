"""Static check that every import in the package's modules is used.

No linter is a dependency of the project, so this walks each module's
syntax tree with the standard library: a name bound by an import must be
read somewhere in the same module, as a bare name or as the root of an
attribute chain.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "triples2text"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_only_unused_imports():
    source = ("import os\nimport numpy as np\nfrom typing import Mapping, Sequence\n"
              "x: Sequence[int] = np.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (3, "Mapping")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_module_has_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)
