"""Golden f-vectors, boundary ranks and Betti numbers of the small classes.

For every shape class with at most 6 leaves, in the chain ("c") and the
cubical ("q") model, the f-vector, the rank of each boundary matrix (from
degree 1 down to 0 first) and the Betti numbers must match
``tests/data/homology_golden.json``.  The ranks pin ``sparse_rank`` itself,
not only the Betti numbers it feeds.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_homology_golden.py
"""

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


def complex_data(shape, which):
    cells, boundary = cell_generators(shape, which)
    ranks = [sparse_rank(_boundary_rows(cells[d - 1], cells[d], boundary))
             for d in range(1, len(cells))]
    report = homology_report(shape, which)
    return {"f_vector": list(report.f_vector), "ranks": ranks,
            "betti": list(report.betti)}


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
