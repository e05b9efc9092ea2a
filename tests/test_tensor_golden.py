"""Golden tensor structures: every entry of A (x) B, exactly.

For each pairing below, ``tensor_structure(sa, sb, max_mu=4, max_inner=2)``
(``max_inner=3`` in the cases named "inner 3") must reproduce
``tests/data/tensor_structure_golden.json`` entry by entry: the
differential, and the type (arity, output kind, degree) and every nonzero
entry of each structure map.  The pairings are the 9 ordered pairs
of the shipped fixtures, the tensor squares of the cyclic witness
`cyclic_mu3`, and two seeded dense `random_structures` pairings with odd
elements on both sides, so the Koszul signs of `tensor_maps` show.  The
same two seeds at ``max_inner=3`` reach the inner corollas whose
decompositions rotate, so the rotation `sigma` of a compose node shows too.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_tensor_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from planarops.endo import tensor_structure
from test_endo import cyclic_mu3, fixture, random_structures

GOLDEN = Path(__file__).resolve().parent / "data" / \
    "tensor_structure_golden.json"
FIXTURE_NAMES = ("frobenius", "two_term", "mu3")
CASES = (["%s (x) %s" % (a, b) for a in FIXTURE_NAMES for b in FIXTURE_NAMES]
         + ["cyclic_mu3 %d %d squared" % p for p in ((1, -3), (-1, 5))]
         + ["random %d" % seed for seed in (1, 2)]
         + ["random %d inner 3" % seed for seed in (1, 2)])


def max_inner(case):
    words = case.split()
    return int(words[3]) if words[2:3] == ["inner"] else 2


def structures(case):
    """The two factors of a case, built afresh."""
    words = case.split()
    if words[0] == "cyclic_mu3":
        s = cyclic_mu3(int(words[1]), int(words[2]))
        return s, s
    if words[0] == "random":
        rng, inner = random.Random(int(words[1])), max_inner(case)
        return (random_structures(rng, (0, 1), max_mu=4, max_inner=inner),
                random_structures(rng, (1, 0), max_mu=4, rho_degree=1,
                                  max_inner=inner))
    return fixture(words[0]), fixture(words[2])


def entries(m):
    return sorted([list(args), o, str(c)] for (args, o), c in m.terms.items())


def structure_data(case):
    pair = tensor_structure(*structures(case), max_mu=4,
                            max_inner=max_inner(case))
    return {"rho_degree": pair.rho_degree, "d": entries(pair.d),
            "maps": {repr(shape): {"type": [m.arity, m.out, m.degree],
                                   "entries": entries(m)}
                     for shape, m in pair.maps.items()}}


def capture():
    return {case: structure_data(case) for case in CASES}


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_tensor_structure_matches_golden(case):
    assert structure_data(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), sort_keys=True) + "\n")
