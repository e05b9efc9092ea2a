"""Seeded generator of the `queries` stream.

The diagrams come from the grammar of the planarops README, not from the
library, so a change to the library cannot change the benchmark's inputs:

    ThinTree   ::= "*" | "(" ThinTree ThinTree+ ")"
    ModuleTree ::= "|" | "{" ThinTree* ";" ModuleTree ";" ThinTree* "}"
    Inner      ::= "<" ModuleTree ";" ThinTree* ";" ModuleTree ";" ThinTree* ">"

Internally a thin leaf is a unique int, a thin vertex a tuple of at least two
subtrees, a module stack a tuple of (left forest, right forest) vertices,
root first, and an inner diagram a tuple (left arm, up, right arm, down).
Leaf positions follow the clockwise boundary walk that planarops documents,
which is what edge keys (`a-b` leaf intervals) and composition indices need.
"""

from __future__ import annotations

import itertools
import random

# One block of the stream holds each command once, shuffled, so every seed
# sends the same command mix.  The mix is uniform: planarops records no usage
# from which to weight it.
COMMANDS = ("boundary_c", "boundary_q", "compose_c", "qmap", "pmap",
            "minmax", "diagonal")
BLOCK = len(COMMANDS)
LEAVES = (6, 7, 8)          # leaves of the boundary, compose, minmax inputs
MAP_LEAVES = (6,)           # leaves of the qmap and pmap inputs
DIAGONAL_LEAVES = (2, 3, 4, 5)

KINDS = ("tree", "module", "inner")
THICK_LEAVES = {"tree": 0, "module": 1, "inner": 2}
THICK_L, THICK_R, THICK = "L|", "R|", "|"


def _parts(rng, total, count, minimum):
    """A random composition of `total` into `count` parts >= `minimum`."""
    spare = total - count * minimum
    cuts = sorted(rng.randint(0, spare) for _ in range(count - 1))
    bounds = [0] + cuts + [spare]
    return [minimum + bounds[i + 1] - bounds[i] for i in range(count)]


def _thin(rng, n, ids):
    if n == 1:
        return next(ids)
    arity = 2 if rng.random() < 0.5 else rng.randint(2, n)
    return tuple(_thin(rng, k, ids) for k in _parts(rng, n, arity, 1))


def _forest(rng, n, ids):
    if n == 0:
        return ()
    return tuple(_thin(rng, k, ids)
                 for k in _parts(rng, n, rng.randint(1, n), 1))


def _stack(rng, n, ids):
    """A module stack carrying `n` thin leaves (n == 0 is the bare `|`)."""
    if n == 0:
        return ()
    out = []
    for k in _parts(rng, n, rng.randint(1, n), 1):
        left = rng.randint(0, k)
        out.append((_forest(rng, left, ids), _forest(rng, k - left, ids)))
    return tuple(out)


def random_diagram(rng, kind, leaves):
    ids = itertools.count(1)
    if kind == "tree":
        return kind, _thin(rng, leaves, ids)
    if kind == "module":
        return kind, _stack(rng, leaves - 1, ids)
    la, up, ra, down = _parts(rng, leaves - 2, 4, 0)
    return kind, (_stack(rng, la, ids), _forest(rng, up, ids),
                  _stack(rng, ra, ids), _forest(rng, down, ids))


def corolla(kind, leaves, split):
    """The corolla with `leaves` leaves; module and inner corollas put
    `split` thin leaves on the left (upper) side."""
    flat = tuple(range(1, leaves - THICK_LEAVES[kind] + 1))
    if kind == "tree":
        return kind, flat
    left, right = flat[:split], flat[split:]
    if kind == "module":
        return kind, ((left, right),)
    return kind, ((), left, (), right)


# --- text -------------------------------------------------------------------

def _fmt_thin(t):
    return "*" if isinstance(t, int) else \
        "(" + " ".join(_fmt_thin(c) for c in t) + ")"


def _fmt_forest(f):
    return " ".join(_fmt_thin(t) for t in f)


def _fmt_stack(stack):
    if not stack:
        return "|"
    left, right = stack[0]
    return "{%s ; %s ; %s}" % (_fmt_forest(left), _fmt_stack(stack[1:]),
                               _fmt_forest(right))


def fmt(d):
    kind, body = d
    if kind == "tree":
        return _fmt_thin(body)
    if kind == "module":
        return _fmt_stack(body)
    la, up, ra, down = body
    return "<%s ; %s ; %s ; %s>" % (_fmt_stack(la), _fmt_forest(up),
                                    _fmt_stack(ra), _fmt_forest(down))


# --- leaves and edges -------------------------------------------------------

def _thin_leaves(t):
    if isinstance(t, int):
        return [t]
    return [x for c in t for x in _thin_leaves(c)]


def _stack_walk(stack, thick):
    pre = [x for left, _r in stack for t in left for x in _thin_leaves(t)]
    post = [x for _l, right in reversed(stack) for t in right
            for x in _thin_leaves(t)]
    return pre, thick, post


def boundary_walk(d):
    """Leaf tokens in planarops' canonical order (thick leaves as strings)."""
    kind, body = d
    if kind == "tree":
        return _thin_leaves(body)
    if kind == "module":
        pre, thick, post = _stack_walk(body, THICK)
        return pre + [thick] + post
    la, up, ra, down = body
    la_pre, _t, la_post = _stack_walk(la, THICK_L)
    ra_pre, _t, ra_post = _stack_walk(ra, THICK_R)
    return ([THICK_L] + la_post + [x for t in up for x in _thin_leaves(t)]
            + ra_pre + [THICK_R] + ra_post
            + [x for t in reversed(down) for x in _thin_leaves(t)] + la_pre)


def _thin_edges(t, out):
    if isinstance(t, int):
        return
    out.append(_thin_leaves(t))
    for c in t:
        _thin_edges(c, out)


def _stack_leaves(stack, thick):
    pre, thick, post = _stack_walk(stack, thick)
    return pre + [thick] + post


def _edge_leaf_sets(d):
    kind, body = d
    out = []
    if kind == "tree":
        for c in body:
            _thin_edges(c, out)
        return out
    stacks = [(body, THICK)] if kind == "module" else \
        [(body[0], THICK_L), (body[2], THICK_R)]
    for stack, thick in stacks:
        first = 1 if kind == "module" else 0
        for i in range(first, len(stack)):
            out.append(_stack_leaves(stack[i:], thick))
        for left, right in stack:
            for t in left + right:
                _thin_edges(t, out)
    if kind == "inner":
        for t in body[1] + body[3]:
            _thin_edges(t, out)
    return out


def _interval(positions, n):
    s = set(positions)
    start = next(a for a in sorted(s) if (a - 2) % n + 1 not in s)
    return "%d-%d" % (start, (start + len(s) - 2) % n + 1)


def edge_texts(d):
    """Every internal edge as a leaf interval `a-b`, in a fixed order."""
    walk = boundary_walk(d)
    pos = {tok: i + 1 for i, tok in enumerate(walk)}
    return [_interval([pos[x] for x in leaves], len(walk))
            for leaves in _edge_leaf_sets(d)]


def leaf_colors(d):
    return ["thick" if isinstance(x, str) else "thin"
            for x in boundary_walk(d)]


# --- generators and commands ------------------------------------------------

def _perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def _c_literal(rng, d):
    n = len(boundary_walk(d))
    es = edge_texts(d)
    rng.shuffle(es)
    return "(%s ; %s ; [%s])" % (fmt(d), " ".join(map(str, _perm(rng, n))),
                                 ", ".join(es))


def _q_literal(rng, d):
    n = len(boundary_walk(d))
    metric = [e for e in edge_texts(d) if rng.random() < 0.5]
    rng.shuffle(metric)
    return "(%s ; %s ; [%s] ; metric:[%s])" % (
        fmt(d), " ".join(map(str, _perm(rng, n))), ", ".join(metric),
        ", ".join(sorted(metric)))


def _compose(rng, kind, total):
    k = rng.randint(3, total - 1)
    x = random_diagram(rng, kind, k)
    x_perm = _perm(rng, k)
    colors = leaf_colors(x)
    want = "thick" if "thick" in colors and rng.random() < 0.5 else "thin"
    i = rng.choice([j for j in range(1, k + 1)
                    if colors[x_perm[j - 1] - 1] == want])
    y = random_diagram(rng, "tree" if want == "thin" else "module",
                       total + 1 - k)
    x_text = "(%s ; %s ; [%s])" % (fmt(x), " ".join(map(str, x_perm)),
                                   ", ".join(edge_texts(x)))
    return ["compose", "c", x_text, str(i), _c_literal(rng, y)]


def _query(rng, command, kind, leaves):
    if command == "diagonal":
        d = corolla(kind, leaves,
                    rng.randint(0, leaves - THICK_LEAVES[kind]))
        return ["diagonal", "(%s ; %s ; [])" % (
            fmt(d), " ".join(map(str, _perm(rng, leaves))))]
    if command == "compose_c":
        return _compose(rng, kind, leaves)
    d = random_diagram(rng, kind, leaves)
    if command == "minmax":
        return ["minmax", fmt(d)]
    if command in ("boundary_q", "pmap"):
        literal = _q_literal(rng, d)
    else:
        literal = _c_literal(rng, d)
    return {"boundary_c": ["boundary", "c"], "boundary_q": ["boundary", "q"],
            "qmap": ["qmap"], "pmap": ["pmap"]}[command] + [literal]


def _sizes(command):
    return {"qmap": MAP_LEAVES, "pmap": MAP_LEAVES,
            "diagonal": DIAGONAL_LEAVES}.get(command, LEAVES)


def stream(seed, count):
    """The first `count` queries of the stream for `seed`, as
    (command, argv) pairs; argv is for `planarops.cli.main` and ends with
    `--format json`.

    Kinds and leaf counts are stratified, not drawn: the t-th query of a
    command has kind `KINDS[t % 3]` and cycles through its leaf counts once
    per three queries, so every seed sends the same mix of commands, kinds
    and sizes, and the seed draws the shapes, labelings and metric sets."""
    rng = random.Random("queries-%d" % seed)
    seen = dict.fromkeys(COMMANDS, 0)
    out = []
    while len(out) < count:
        block = list(COMMANDS)
        rng.shuffle(block)
        for command in block:
            t = seen[command]
            seen[command] += 1
            sizes = _sizes(command)
            argv = _query(rng, command, KINDS[t % 3],
                          sizes[(t // 3) % len(sizes)])
            out.append((command, argv + ["--format", "json"]))
    return out[:count]
