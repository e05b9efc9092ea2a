"""Golden boundary matrices, ranks, collapses and Betti numbers of the small
classes.

For every shape class with at most 6 leaves, in the chain ("c") and the
cubical ("q") model, these must match ``tests/data/homology_golden.json``:
the f-vector, the rank of each boundary matrix (from degree 1 down to 0
first), the f-vector that ``collapse`` leaves, the Betti numbers, and a
sha256 of each boundary matrix's sorted ``(row, col, coef)`` entries.  The
ranks pin ``sparse_rank`` itself, not only the Betti numbers it feeds; the
digests pin every sign and every row and column position of the assembled
matrices, which no rank sees.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_homology_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from planarops.diagrams import shapes_up_to
from planarops.homology import (
    _boundary_rows, cell_generators, homology_report, sparse_rank,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "homology_golden.json"
CASES = [(shape, which) for shape in shapes_up_to(6) for which in ("c", "q")]


def key(shape, which):
    return "%r %s" % (shape, which)


def matrix_digest(rows):
    """sha256 of the sorted (row, col, coef) entries of a boundary matrix."""
    entries = sorted((i, j, v) for i, row in enumerate(rows)
                     for j, v in row.items())
    return hashlib.sha256(repr(entries).encode()).hexdigest()


def complex_data(shape, which):
    cells, image = cell_generators(shape, which)
    matrices = [_boundary_rows(cells[d - 1], cells[d], image)
                for d in range(1, len(cells))]
    report = homology_report(shape, which)
    return {"f_vector": list(report.f_vector),
            "ranks": [sparse_rank(m) for m in matrices],
            "critical": list(report.critical),
            "betti": list(report.betti),
            "matrix_sha256": [matrix_digest(m) for m in matrices]}


def capture():
    return {key(shape, which): complex_data(shape, which)
            for shape, which in CASES}


def test_golden_covers_every_class():
    assert sorted(json.loads(GOLDEN.read_text())) == \
        sorted(key(shape, which) for shape, which in CASES)


@pytest.mark.parametrize("shape,which", CASES,
                         ids=[key(s, w) for s, w in CASES])
def test_complex_matches_golden(shape, which):
    assert complex_data(shape, which) == \
        json.loads(GOLDEN.read_text())[key(shape, which)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
