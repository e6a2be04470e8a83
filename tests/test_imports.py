"""Every name a `pixqa` module, a script or a test file imports is used in that file, and so is every private helper it defines.

A local that a function never reads, or only appends, adds, extends, updates or inserts into, is not allowed
either, nor is a parameter that a `pixqa` or script function never reads, and every public function of
`pixqa.autograd` is read by another `pixqa` module.

No linter runs on this repository, so these stdlib-`ast` checks stand in
for one. ``__init__.py`` is skipped by the import check: its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pixqa

SRC = Path(pixqa.__file__).parent
FILES = [*sorted(SRC.glob("*.py")), *sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))]
LINTED = [*FILES, *sorted(Path(__file__).parent.glob("*.py"))]  # the program's files and the tests
# perfbench/tests/test_helpers.py checks that its tracer rebinds `fuse_question_page` in `training` too.
ALLOWED = {("training", "fuse_question_page")}
# Parameters that a callable type fixes: an initializer takes (rng, shape, params), and `_fit`'s batch_stacks
# (indices, rng), which stage 1's `stacks` draws nothing from.
ALLOWED_PARAMETERS = {("layers", "glorot", "params"), ("layers", "zeros", "rng"), ("layers", "zeros", "params"),
                      ("layers", "ones", "rng"), ("layers", "ones", "params"), ("training", "stacks", "rng")}


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
    found = {(path.stem, name) for path in LINTED if path.name != "__init__.py"
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
    found = {(path.stem, name) for path in LINTED for name in unused_private_helpers(path.read_text())}
    assert not found, f"unused private helpers: {sorted(found)}"


def test_the_check_finds_an_unused_private_helper():
    source = ("def _used():\n    return 1\n\ndef _left_behind(stack):\n    return stack\n\n"
              "class _Gone:\n    pass\n\ndef public():\n    return _used()\n")
    assert unused_private_helpers(source) == {"_left_behind", "_Gone"}


WRITES = {"append", "add", "extend", "update", "insert"}


def write_only_locals(source: str) -> set[tuple[str, str]]:
    """(function, name) for each local a function binds and then only calls one of ``WRITES`` on.

    Any other read of the name, in the function or a function nested in it, uses the local.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        bound = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        writes = [node.value for node in nodes
                  if isinstance(node, ast.Attribute) and node.attr in WRITES and isinstance(node.value, ast.Name)]
        receivers = {id(w) for w in writes}
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in receivers}
        found |= {(func.name, name) for name in (bound & {w.id for w in writes}) - read}
    return found


def test_no_function_binds_a_local_it_only_writes_into():
    found = {(path.stem, *pair) for path in LINTED for pair in write_only_locals(path.read_text())}
    assert not found, f"locals written into and never read: {sorted(found)}"


def test_the_check_finds_a_write_only_local():
    source = ("def f(rows):\n    kept, seen, order, shared = [], set(), [], []\n"
              "    for r in rows:\n        kept.append(r)\n        seen.add(r)\n        order.insert(0, r)\n"
              "        shared.extend(rows)\n    def g():\n        return shared\n    return len(seen), g\n")
    assert write_only_locals(source) == {("f", "kept"), ("f", "order")}


def own_scope(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """The nodes of ``func``'s body, leaving out the bodies of the functions, lambdas and classes nested in it."""
    nodes, stack = [], list(func.body)
    while stack:
        nodes.append(node := stack.pop())
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def unread_locals(source: str) -> set[tuple[str, str]]:
    """(function, name) for each local a function binds and never reads.

    A binding is an ``=``, annotated or augmented assignment, or ``:=``; a read anywhere in the function or
    a function nested in it counts. ``_``, the names a tuple unpacks
    into, ``for`` targets and names declared ``global`` or ``nonlocal`` are exempt.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = own_scope(func)
        targets = [target for node in nodes if isinstance(node, ast.Assign) for target in node.targets]
        targets += [node.target for node in nodes if isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr))]
        bound = {target.id for target in targets if isinstance(target, ast.Name)}
        declared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {(func.name, name) for name in bound - read - declared - {"_"}}
    return found


def test_no_function_binds_a_local_it_never_reads():
    found = {(path.stem, *pair) for path in LINTED for pair in unread_locals(path.read_text())}
    assert not found, f"locals bound and never read: {sorted(found)}"


def test_the_check_finds_an_unread_local():
    source = ("def f(k_t, rows):\n    len_k = k_t.shape[-1]\n    total: int = 0\n    count = 0\n    count += 1\n"
              "    if (n := len(rows)) > 1:\n        pass\n    _ = rows\n    head, tail = rows\n"
              "    for r in rows:\n        pass\n    kept = 1\n    def g():\n        nonlocal total\n"
              "        total = kept\n        inner = 2\n    return g, total\n")
    assert unread_locals(source) == {("f", "len_k"), ("f", "count"), ("f", "n"), ("g", "inner")}


def unread_parameters(source: str) -> set[tuple[str, str]]:
    """(function, name) for each parameter a function never reads, in its body or a function nested in it.

    ``self``, ``cls`` and ``_``-prefixed names are exempt.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {(func.name, name) for name in names
                  if name not in read and name not in ("self", "cls") and not name.startswith("_")}
    return found


def test_no_function_takes_a_parameter_it_never_reads():
    found = {(path.stem, *pair) for path in FILES for pair in unread_parameters(path.read_text())}
    assert found == ALLOWED_PARAMETERS, (f"unread: {sorted(found - ALLOWED_PARAMETERS)}; "
                                         f"allowed but read: {sorted(ALLOWED_PARAMETERS - found)}")


def test_the_check_finds_an_unread_parameter():
    source = ("def attention(q, k_t, v, scale, mask=None, *rest, _spare=0, **options):\n    return q @ k_t @ v * scale\n\n"
              "class A:\n    def f(self, x, y):\n        def g():\n            return x\n        return g\n\n"
              "    @classmethod\n    def h(cls, z):\n        return 1\n")
    assert unread_parameters(source) == {("attention", "mask"), ("attention", "rest"), ("attention", "options"),
                                         ("f", "y"), ("h", "z")}


def autograd_reads(source: str) -> set[str]:
    """Names a module reads from ``autograd``: imported from it, or as an attribute of an alias of the module."""
    tree = ast.parse(source)
    aliases, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "autograd":
            read |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "autograd"}
    return read | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in aliases}


def unread_ops(source: str, readers: list[str]) -> set[str]:
    """Public top-level functions of ``source`` that none of ``readers`` reads from ``autograd``."""
    public = {node.name for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    return public - set().union(*map(autograd_reads, readers))


def test_every_autograd_op_is_read_by_another_module():
    others = [path.read_text() for path in sorted(SRC.glob("*.py")) if path.stem != "autograd"]
    unread = unread_ops((SRC / "autograd.py").read_text(), others)
    assert not unread, f"autograd functions no other pixqa module reads: {sorted(unread)}"


def test_the_check_finds_an_unread_op():
    source = "def matmul(a, b):\n    pass\n\ndef relu(a):\n    pass\n\ndef left_behind(a):\n    pass\n\ndef _helper():\n    pass\n"
    readers = ["from . import autograd as ag\n\nag.matmul(x, y)\nnp.left_behind(x)\n", "from .autograd import relu\n"]
    assert unread_ops(source, readers) == {"left_behind"}
