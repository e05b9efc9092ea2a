"""Golden endomorphism images of the small classes.

For every shape class with at most 5 leaves, each shipped fixture
(`frobenius`, `two_term`, `mu3`) and a seeded dense `random_structures`
set with an odd element (`random`), these must match
``tests/data/eval_golden.json``: a sha256 of the `eval_generator` image of
every diagram of the class with identity labeling and +sorted orientation,
each followed by the image of one relabeling of it drawn from a generator
seeded by the class.  Each structure set is built afresh for each class, so
its `_images` memo starts empty, and each image's terms are sorted by
`repr`.  The digests pin every entry and every sign of the evaluation, so a
change in how the images are built must leave them unchanged.  The shipped
fixtures send most generators to zero; every image of the random set is
nonzero, so its digests pin the signs and rotations of the compose nodes
too.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_eval_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from planarops.diagrams import shapes_up_to
from planarops.endo import eval_generator
from planarops.operad_c import CGenerator, c_generator
from planarops.verify import class_diagrams
from test_endo import fixture, random_structures
from test_transfer_golden import images_digest

GOLDEN = Path(__file__).resolve().parent / "data" / "eval_golden.json"
SHAPES = list(shapes_up_to(5))
FIXTURE_NAMES = ("frobenius", "two_term", "mu3", "random")


def structures(name):
    """A shipped fixture, or the seeded random set, built afresh."""
    if name == "random":
        return random_structures(random.Random(1), (0, 1), max_mu=5,
                                 max_inner=3)
    return fixture(name)


def class_generators(shape):
    """Each identity-labeled generator of the class, then one seeded
    relabeling of it."""
    rng = random.Random(repr(shape))
    for d in class_diagrams(shape):
        gen = c_generator(d)[0]
        n = len(gen.perm)
        yield gen
        yield CGenerator(d, tuple(rng.sample(range(1, n + 1), n)), gen.keys)


def class_data(shape):
    gens = list(class_generators(shape))
    out = {"images": len(gens)}
    for name in FIXTURE_NAMES:
        s = structures(name)
        out[name + "_sha256"] = images_digest(
            [eval_generator(gen, s) for gen in gens])
    return out


def capture():
    return {repr(shape): class_data(shape) for shape in SHAPES}


def test_golden_covers_every_class():
    assert sorted(json.loads(GOLDEN.read_text())) == \
        sorted(repr(shape) for shape in SHAPES)


@pytest.mark.parametrize("shape", SHAPES, ids=[repr(s) for s in SHAPES])
def test_images_match_golden(shape):
    assert class_data(shape) == json.loads(GOLDEN.read_text())[repr(shape)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
