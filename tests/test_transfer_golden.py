"""Golden q and p images of the small classes.

For every shape class with at most 5 leaves, these must match
``tests/data/transfer_golden.json``: a sha256 of the `_q_image` of every
diagram of the class (identity labeling, +sorted orientation), and one of
the `_p_image` of every cubical cell, each image's terms sorted by `repr`.
The digests pin every term and every sign of q and p, so a change in how
the images are built must leave them unchanged.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_transfer_golden.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from planarops.diagrams import shapes_up_to
from planarops.homology import cell_generators
from planarops.operad_c import c_generator
from planarops.transfer import _p_image, _q_image
from planarops.verify import class_diagrams

GOLDEN = Path(__file__).resolve().parent / "data" / "transfer_golden.json"
SHAPES = list(shapes_up_to(5))


def images_digest(images):
    """sha256 of a list of images, each written as its sorted terms."""
    text = repr([[(repr(g), c) for g, c in sorted(
        x.terms.items(), key=lambda kv: repr(kv[0]))] for x in images])
    return hashlib.sha256(text.encode()).hexdigest()


def class_data(shape):
    qs = [_q_image(c_generator(d)[0]) for d in class_diagrams(shape)]
    ps = [_p_image(cell)
          for cell in itertools.chain(*cell_generators(shape, "q")[0])]
    return {"q_sha256": images_digest(qs), "p_sha256": images_digest(ps),
            "q_images": len(qs), "p_images": len(ps)}


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
