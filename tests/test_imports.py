"""Every name a module imports is used in that module, and every module-level
private name (`_name`) of the package is read by some module of the package.

Package `__init__.py` files are skipped by the import scan: their imports are
the public API. `from __future__` imports are compiler directives, not names.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "torusgeo", ROOT / "tests")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source` that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(source) == ["os", "c"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for folder in SCANNED
             for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level `_name` definitions in `sources` (label -> source) that no source reads.

    A name counts as read when any source loads it, imports it or takes it as an attribute.
    """
    defined, read = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(label, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{label}: {name}" for label, name in defined if name not in read]


def test_unread_private_names_detected():
    sources = {"a": "_TOL = 1\n_OLD = 2\ndef _f():\n    return _TOL\nclass _C: pass\n",
               "b": "from .a import _f\nimport a\nprint(a._C, _f)\n"}
    assert unread_private_names(sources) == ["a: _OLD"]


def test_no_unread_private_names():
    package = ROOT / "src" / "torusgeo"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []


def calls_to(source: str, name: str) -> list[int]:
    """The lines of `source` that call a function or method named `name`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]


def test_calls_to_detected():
    source = "def g(m):\n    f = m.hook\n    return m.hook(1), hook(2), m.other(3)\n"
    assert calls_to(source, "hook") == [3, 3]


def test_no_module_calls_speed_sq_grads():
    # speed_sq_grads is the hook perfbench/tracing.py wraps; callers read `kernel`
    package = ROOT / "src" / "torusgeo"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in calls_to(path.read_text(encoding="utf-8"), "speed_sq_grads")]
    assert found == []


def _defaulted(value) -> bool:
    """Whether a dataclass field's value gives it a default: a `field(...)` only with
    `default=` or `default_factory=`."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def settable_values(source: str) -> int:
    """Defaulted parameters plus defaulted fields of `@dataclass` classes in `source`.

    Each is a value a caller can set; a constant no caller sets is a module name instead.
    """
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and _defaulted(s.value) for s in node.body)
    return count


def test_settable_values_counted():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c, d=2):\n    return lambda x=0: x\n"
              "@dataclass(frozen=True)\nclass C:\n    x: int\n    u: list = field(repr=False)\n"
              "    y: int = 0\n    v: list = field(default_factory=list)\n"
              "    w: int = field(repr=False, default=0)\n"
              "class D:\n    z: int = 0\n")
    assert settable_values(source) == 6


def test_settable_value_count_is_pinned():
    # adding or removing a knob changes this number in the same diff
    package = ROOT / "src" / "torusgeo"
    assert sum(settable_values(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))) == 26


def private_imports(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(importing module, imported module, name) of each `_name` a module of `sources`
    (file name -> source) imports from a sibling module with `from .module import`."""
    found = set()
    for label, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(label.removesuffix(".py"), node.module, a.name)
                          for a in node.names if a.name.startswith("_")}
    return found


def test_private_imports_detected():
    sources = {"a.py": "from .b import _f, g\nfrom . import _h\nfrom c import _d\n",
               "b.py": "from .a import _e as e\n"}
    assert private_imports(sources) == {("a", "b", "_f"), ("b", "a", "_e")}


def test_private_names_shared_across_modules_are_pinned():
    # each module keeps its private helpers to itself, except the loop
    # length and action kernels that the solver and experiments share
    package = ROOT / "src" / "torusgeo"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert private_imports(sources) == {(user, "loops", name) for user in ("solver", "experiments")
                                        for name in ("_length_action", "_stacked_lengths")}
