"""Package boundaries: no module imports another package's private names.

A leading underscore marks a name as internal to its top-level package
(``repro.bench``, ``repro.cli``, ...).  Reaching across that boundary for
one couples two packages through an API neither side promises to keep;
a shared helper belongs in the public API instead.
"""

import ast
from pathlib import Path
from typing import List

import repro

SRC = Path(repro.__file__).parent


def private_cross_package_imports(root: Path) -> List[str]:
    """``from repro.<pkg>... import _name`` lines whose ``<pkg>`` is not
    the importing module's own top-level package."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        own = rel.with_suffix("").parts[1]
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            parts = node.module.split(".")
            if parts[0] != root.name or (len(parts) > 1 and parts[1] == own):
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    found.append(f"{rel.as_posix()}:{node.lineno}: "
                                 f"from {node.module} import {name}")
    return found


def test_no_private_cross_package_imports():
    assert private_cross_package_imports(SRC) == []


def test_checker_flags_only_foreign_private_names(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "a").mkdir(parents=True)
    (pkg / "a" / "m.py").write_text(
        "from repro.b.x import _hidden, public\n"
        "from repro.a.y import _own\n"
        "from repro.cli import _flags\n"
        "from repro import __version__\n"
    )
    (pkg / "cli.py").write_text("from repro.cli import _self\n")
    assert private_cross_package_imports(pkg) == [
        "repro/a/m.py:1: from repro.b.x import _hidden",
        "repro/a/m.py:3: from repro.cli import _flags",
    ]
