"""The size of ``src`` is a ratchet.

The count is ``find src -name '*.py' | xargs cat | wc -l``.  Growing
``src`` means raising :data:`MAX_SRC_LINES` in a reviewed edit; a change
that shrinks ``src`` lowers it to the new count.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

MAX_SRC_LINES = 20_833


def test_src_lines_within_budget():
    total = 0
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    assert total <= MAX_SRC_LINES, (
        f"src has {total} lines, over the budget of {MAX_SRC_LINES}")
