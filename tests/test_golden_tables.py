"""Byte-for-byte check of engine access tables against checked-in hashes.

`golden_tables.txt` holds one line per case of `test_coverage._TILE_CASES`:
its name, the row count of the joined table that `accesses_for_passes`
gives, the sha256 of the table's point, start and end bytes, in that
order, and the table's merge_tol and pass_count.  The reports of
`golden_reports.txt` depend on the table only through its gaps; these
lines pin every row.  A change that is meant to keep every number must
leave the file's bytes as they are; one that is meant to move them
regenerates it with

    PYTHONPATH=src python tests/test_golden_tables.py > tests/golden_tables.txt

and says in its change notes which tables moved and why.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from revisit.coverage import accesses_for_passes
from revisit.engine import branch_inputs

from test_coverage import _TILE_CASES, _subset

GOLDEN = Path(__file__).with_name("golden_tables.txt")


def golden_tables() -> str:
    """One line per case of `_TILE_CASES`, in name order: its name, row
    count, table hash, merge_tol and pass_count."""
    lines = []
    for name in sorted(_TILE_CASES):
        el, sensor, lat, walker, st, select, _ = _TILE_CASES[name]
        pset, segs, fps, grid = branch_inputs(el, sensor, lat, walker, st)
        if select is not None:
            pset = _subset(pset, select(pset))
        table = accesses_for_passes(pset, segs, fps, grid, lat)
        digest = hashlib.sha256()
        for column in (table.point, table.start, table.end):
            digest.update(column.tobytes())
        lines.append(
            f"{name} {table.point.size} {digest.hexdigest()} "
            f"{table.merge_tol!r} {table.pass_count}\n"
        )
    return "".join(lines)


def test_engine_tables_match_the_golden_hashes():
    assert golden_tables().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(golden_tables())
