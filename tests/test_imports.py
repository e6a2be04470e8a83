"""Every name a `pixqa` module imports is used in that module, and so is every private helper it defines.

No linter runs on this repository, so these stdlib-`ast` checks stand in
for one. ``__init__.py`` is skipped by the import check: its imports are
the package's re-exports.
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


def unused_private_helpers(source: str) -> set[str]:
    """Module-level private functions and classes (``_name``) that nothing in the module reads."""
    tree = ast.parse(source)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    return private - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_module_defines_a_private_helper_it_never_uses():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py")) for name in unused_private_helpers(path.read_text())}
    assert not found, f"unused private helpers: {sorted(found)}"


def test_the_check_finds_an_unused_private_helper():
    source = ("def _used():\n    return 1\n\ndef _left_behind(stack):\n    return stack\n\n"
              "class _Gone:\n    pass\n\ndef public():\n    return _used()\n")
    assert unused_private_helpers(source) == {"_left_behind", "_Gone"}
