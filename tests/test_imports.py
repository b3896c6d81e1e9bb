"""Static checks that every import and every module-level private name
in the package's modules is used, and every import of the tests and
scripts; that every public module-level function or class of the
package is read by the program (the package, ``scripts/`` or ``bench/``),
not only by tests, unless an allow-list entry says why; and that the
program names every field of the configs it builds.

No linter is a dependency of the project, so this walks each module's
syntax tree with the standard library. A name bound by an import must be
read somewhere in the same module, as a bare name or as the root of an
attribute chain. A module-level private name (``_x``, not a dunder) must
be read by some module of the package, as a bare name or as an attribute.
Files are written through ``fileio.atomic_open``: the one plain ``open``
for writing left is the streamed training log.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triples2text"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_AND_SCRIPT_MODULES = sorted([*(ROOT / "tests").glob("*.py"),
                                  *(ROOT / "scripts").glob("*.py")])
PROGRAM_MODULES = sorted([*MODULES, *(ROOT / "scripts").glob("*.py"),
                          *(ROOT / "bench").glob("*.py")])

# Public names the program never reads, each kept on purpose.
TEST_ONLY_PUBLIC = {
    "nn.leaf": "wraps test arrays as nodes for the tape tests and the taped reference "
               "chains; it goes with the tape",
}


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


@pytest.mark.parametrize("path", TEST_AND_SCRIPT_MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in TEST_AND_SCRIPT_MODULES])
def test_test_and_script_module_has_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def private_names(source: str) -> dict[str, int]:
    """Module-level private names bound by assignment, def or class."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out[name] = node.lineno
    return out


def read_names(source: str) -> set[str]:
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unused_private_names(sources: dict[str, str]) -> list[str]:
    read = set().union(*map(read_names, sources.values()))
    return sorted(f"{module}:{line} {name}" for module, source in sources.items()
                  for name, line in private_names(source).items() if name not in read)


def test_checker_flags_only_unused_private_names():
    sources = {"a.py": "_used = 1\n_dead, _kept = 2, 3\n__all__ = []\ndef _f(): return _used\n",
               "b.py": "from a import _f\nimport a\nx = a._kept + _f()\n"}
    assert unused_private_names(sources) == ["a.py:2 _dead"]


def test_package_has_no_unused_private_name():
    unused = unused_private_names({p.name: p.read_text(encoding="utf-8") for p in MODULES})
    assert not unused, ", ".join(unused)


def public_definitions(source: str) -> list[str]:
    """Names of the module-level public functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unread_public_names(package: dict[str, str], program: list[str]) -> list[str]:
    """``module.name`` of each public definition of ``package`` (module
    file name to source) that no source of ``program`` reads."""
    read = set().union(*map(read_names, program))
    return sorted(f"{module.removesuffix('.py')}.{name}"
                  for module, source in package.items()
                  for name in public_definitions(source) if name not in read)


def test_checker_flags_only_unread_public_names():
    package = {"a.py": "def used(): pass\ndef dead(): pass\nclass _Private: pass\n"
                       "class Kept: pass\n",
               "b.py": "from a import used\nimport a\nx = used() or a.Kept\n"}
    assert unread_public_names(package, list(package.values())) == ["a.dead"]


def test_every_public_name_is_read_by_the_program():
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    program = [p.read_text(encoding="utf-8") for p in PROGRAM_MODULES]
    unread = unread_public_names(package, program)
    assert unread == sorted(TEST_ONLY_PUBLIC), (
        "read only by tests, with no allow-list entry: "
        f"{sorted(set(unread) - set(TEST_ONLY_PUBLIC))}; allow-listed but read by "
        f"the program: {sorted(set(TEST_ONLY_PUBLIC) - set(unread))}")


def write_opens(source: str) -> list[int]:
    """Lines of the ``open(...)`` calls whose mode writes, appends or creates."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes):
            lines.append(node.lineno)
    return lines


def test_checker_finds_only_writing_opens():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='ab')\n"
              "open(p, encoding='utf-8')\nopen(p, m)\n")
    assert write_opens(source) == [3, 4, 6]


def test_only_the_training_log_is_opened_for_writing_outside_fileio():
    found = {p.name: write_opens(p.read_text(encoding="utf-8"))
             for p in MODULES if p.name != "fileio.py"}
    found = {name: lines for name, lines in found.items() if lines}
    assert list(found) == ["training.py"] and len(found["training.py"]) == 1, found
    source = (PACKAGE / "training.py").read_text(encoding="utf-8").splitlines()
    assert "log_path" in source[found["training.py"][0] - 1]


# Each defaulted parameter or defaulted dataclass field of the package is
# a value a caller may set. The count may fall; raising it means raising
# this ceiling on purpose.
SETTABLE_VALUES_CEILING = 57


def settable_values(source: str) -> int:
    """Defaulted parameters of every function, plus fields with a default
    of every ``@dataclass`` class (named tuples are not counted)."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].rsplit(".")[-1] == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_checker_counts_defaulted_parameters_and_dataclass_fields():
    source = ("def f(a, b=1, *, c, d=2): pass\ng = lambda x=0: x\n"
              "@dataclass\nclass C:\n    x: int\n    y: int = 0\n    z = 1\n"
              "@dataclasses.dataclass(frozen=True)\nclass D:\n    y: int = 0\n"
              "class N(NamedTuple):\n    y: int = 0\n")
    assert settable_values(source) == 5


def test_settable_values_stay_under_the_ceiling():
    count = sum(settable_values(p.read_text(encoding="utf-8")) for p in MODULES)
    assert count <= SETTABLE_VALUES_CEILING, (
        f"{count} defaulted parameters and dataclass fields, ceiling {SETTABLE_VALUES_CEILING}")


# The configs whose every field the program must set somewhere: a field
# that only tests set is a constant, not a setting.
CONFIG_CLASSES = {"ModelConfig", "TrainConfig", "PipelineConfig"}


def unnamed_fields(sources: list[str], classes: set[str]) -> list[str]:
    """``Class.field`` of each field of ``classes`` that no source names,
    outside the body of the class that declares it, as a keyword argument
    or a string constant (a config key, a ``getattr`` or ``range_of``
    name, a header key)."""
    trees = [ast.parse(source) for source in sources]
    out = []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in classes):
                continue
            inside = {id(node) for node in ast.walk(cls)}
            named = {node.arg if isinstance(node, ast.keyword) else node.value
                     for t in trees for node in ast.walk(t) if id(node) not in inside
                     and (isinstance(node, ast.keyword)
                          or isinstance(node, ast.Constant) and isinstance(node.value, str))}
            out.extend(f"{cls.name}.{s.target.id}" for s in cls.body
                       if isinstance(s, ast.AnnAssign) and s.target.id not in named)
    return sorted(out)


def test_checker_flags_only_unnamed_fields():
    sources = ["class C:\n    a: int = 1\n    b: int = setting(2, b='b')\n    c: int = 3\n"
               "    d: int = 4\nclass D:\n    a: int = 0\n",
               "C(a=1)\nrange_of(C, 'c')\nx.d\n"]
    assert unnamed_fields(sources, {"C"}) == ["C.b", "C.d"]


def test_every_config_field_is_named_by_the_program():
    sources = [p.read_text(encoding="utf-8") for p in PROGRAM_MODULES]
    unnamed = unnamed_fields(sources, CONFIG_CLASSES)
    assert not unnamed, f"fields no program sets, which should be constants: {unnamed}"
