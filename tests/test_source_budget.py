"""The size of ``src`` is a ratchet, in total and per module.

The count is ``find src -name '*.py' | xargs cat | wc -l``.  Growing
``src`` means raising :data:`MAX_SRC_LINES` in a reviewed edit; a change
that shrinks ``src`` lowers it to the new count.  No module may grow past
:data:`MAX_MODULE_LINES`: one that would is split along a seam first.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

MAX_SRC_LINES = 20_844
MAX_MODULE_LINES = 700


def module_lines():
    """``{path relative to src: newline count}`` of every module."""
    lines = {}
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    lines[os.path.relpath(path, SRC)] = handle.read().count(b"\n")
    return lines


def test_src_lines_within_budget():
    total = sum(module_lines().values())
    assert total <= MAX_SRC_LINES, (
        f"src has {total} lines, over the budget of {MAX_SRC_LINES}")


def test_no_module_over_the_module_cap():
    over = {path: count for path, count in module_lines().items()
            if count > MAX_MODULE_LINES}
    assert over == {}, f"modules over {MAX_MODULE_LINES} lines: {over}"
