"""Hypothesis helpers shared by the fuzzers over JSON inputs (checkpoint headers, annotation files)."""

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()  # a value for replace_field that removes the field instead


def has_field(node, key) -> bool:
    return (isinstance(node, dict) and key in node) or (isinstance(node, list) and isinstance(key, int) and key < len(node))


def replace_field(root, path: tuple, value) -> None:
    """Set (or, for DELETE, remove) the field at `path`, unless an earlier replacement removed it."""
    node = root
    for key in path[:-1]:
        node = node[key] if has_field(node, key) else None
    if has_field(node, path[-1]):
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
