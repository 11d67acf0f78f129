"""Every function and class in ``src/marsched`` is used by the program or the
benchmark, not only by the tests.

A name counts as used when it occurs as a Python name token in ``src/`` or
``bench/`` outside the lines of its own definition, so recursion and its own
docstring do not count and comments never do.
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marsched"

# name -> why it stays although nothing in src/ or bench/ calls it
ALLOWED = {
    "random_baseline": "the reference the trained agent must beat (c08)",
    "sort_key": "the reference order (score, submit, id) that the run ranks "
                "must equal; bench/tracing.py patches it by name",
    "deps_met": "bench/tracing.py patches it by name, and bench/ is "
                "changed only with the benchmark",
}


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {path: path.read_text() for path in files}


def _name_lines(text):
    """Line numbers of every NAME token, keyed by the name."""
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            lines.setdefault(tok.string, []).append(tok.start[0])
    return lines


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                yield path, node


def _unused():
    tokens = {path: _name_lines(text) for path, text in _sources().items()}
    for path, node in _definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(line not in own or other != path
                   for other, names in tokens.items()
                   for line in names.get(node.name, ())):
            yield f"{path.name}:{node.lineno} {node.name}", node.name


def test_every_definition_is_used_outside_the_tests():
    unused = [where for where, name in _unused() if name not in ALLOWED]
    assert not unused, "reached only by tests or by nothing: " + ", ".join(unused)


def test_allowlist_holds_only_unused_names():
    # an allowed name that the program starts to call leaves the list; the
    # private helpers of the allowed names are reached through them
    assert sorted(name for _, name in _unused()) == sorted(ALLOWED)
