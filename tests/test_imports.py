"""Every name a `pixqa` module imports is used in that module.

No linter runs on this repository, so this stdlib-`ast` check stands in for
one. ``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pixqa

SRC = Path(pixqa.__file__).parent
# perfbench/tests/test_helpers.py checks that its tracer rebinds `fuse_question_page` in `training` too.
ALLOWED = {("training", "fuse_question_page")}


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression or annotation reads (a quoted annotation does not)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path.read_text())}
    assert found == ALLOWED, f"unused: {sorted(found - ALLOWED)}; allowed but no longer unused: {sorted(ALLOWED - found)}"


def test_the_check_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == {"field", "np"}
