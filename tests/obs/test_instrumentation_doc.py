"""docs/observability.md names every span, counter and gauge the code emits.

The scan reads ``src/`` as syntax: every call of ``span``, ``count``,
``gauge``, ``timed`` or the journal's ``_count`` whose first argument is
a dotted string literal emits that name.  A name the doc does not show
in backticks is instrumentation an operator cannot look up.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EMITTERS = {"span", "count", "gauge", "timed", "_count"}


def emitted_names():
    """``{name: {module path, ...}}`` over every module under src/."""
    names = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            first = node.args[0]
            if (
                called in EMITTERS
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and "." in first.value
            ):
                relative = str(path.relative_to(ROOT))
                names.setdefault(first.value, set()).add(relative)
    return names


def test_the_scan_finds_every_layer():
    names = emitted_names()
    for prefix in ("lms.", "store.", "server.", "readmodel.", "analyze."):
        assert any(name.startswith(prefix) for name in names), prefix


def test_every_emitted_name_is_documented():
    doc = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    missing = {
        name: sorted(paths)
        for name, paths in emitted_names().items()
        if f"`{name}`" not in doc
    }
    assert not missing, (
        f"{len(missing)} instrumented names are missing from "
        f"docs/observability.md: {missing}"
    )
