"""Byte-for-byte gate on the solve's residual row stream.

tests/data/rows.json records, for a few windows, the number of rows
rows.residual_rows yields and a sha256 of the stream: every class's rows
in full, one class after another, in yield order.  A change to how the
rows are assembled must reproduce both exactly: the same rows, in the
same order, and no extra ones.

Regenerate the file (``python3 tests/test_rows.py``) only for a change
that is meant to alter the rows, and record that change.
"""

import hashlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from halfder.algebras import make_algebra
from halfder.maps import _Window
from halfder.tables import direct_sum
from test_solver import HALF, _every_row

PINNED = pathlib.Path(__file__).parent / "data" / "rows.json"

# name: (algebra, window, shift, delta)
CASES = {
    "witt-8-2": (lambda: make_algebra("witt"), 8, 2, HALF),
    "n2sca-ramond-6-1": (lambda: make_algebra("n2sca", sector="ramond"), 6, 1, HALF),
    "wab-1/2--1-6-2": (lambda: make_algebra("wab", a="1/2", b="-1"), 6, 2, HALF),
    "sl2+sl2": (lambda: direct_sum(make_algebra("sl2"), make_algebra("sl2")), None, None, HALF),
    "nary3-delta-1/3": (lambda: make_algebra("nary_simple", n=3), None, None, Fraction(1, 3)),
}


def stream(name: str) -> dict:
    """{"rows": count, "sha256": digest} of the case's row stream; each
    row is hashed as its [unknown, coefficient] pairs, one line per row."""
    build, window, shift, delta = CASES[name]
    rows = _every_row(_Window(build(), window, shift), delta)
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(list(row.items()), separators=(",", ":")).encode() + b"\n")
    return {"rows": len(rows), "sha256": h.hexdigest()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_stream_is_pinned(name):
    assert stream(name) == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    out = {name: stream(name) for name in sorted(CASES)}
    PINNED.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(out)} cases to {PINNED}", file=sys.stderr)
