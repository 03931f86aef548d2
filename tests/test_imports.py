"""Every name a module imports is used in that module.

Package `__init__.py` files are skipped: their imports are the public API.
`from __future__` imports are compiler directives, not names.
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
