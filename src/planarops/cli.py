"""Command-line surface.

Shapes are written ``T4``, ``M2,3``, ``I1,2``.  Generators are written

    coef * (diagram ; perm ; [edge, ...] ; metric:[edge, ...])

with the diagram grammar of the library, a space-separated permutation (or
``id``), edges as leaf intervals ``a-b`` listed in wedge order, and the
metric section only meaningful for cubical generators (it defaults to every
edge).  All commands accept ``--format json``.  ``minmax`` and ``leq`` print
the cover digraph of the shape class, and ``homology`` its boundary complex,
as DOT with ``--dot``; ``--dot`` with ``--format json`` exits with code 2.
The commands that build a whole shape class (``enumerate``, ``qmap``,
``pmap``, ``diagonal``, ``homology``, ``tensor-ainf`` and every ``--dot``
output) refuse one of more than ``diagrams.SIZE_CAP`` leaves with exit
code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache

from . import perms
from .diagrams import (
    INNER, MODULE, TREE, DiagramError, ShapeClass, check_size_cap,
    enumerate_class, fmt, fmt_edge, is_corolla, leaf_count, parse, parse_edge,
    shape_class,
)
from .formal import unit
from .operad_c import CGenerator, boundary_c, c_generator, compose_elements
from .operad_q import QGenerator, boundary_q, q_generator
from .operad_q import compose_elements as q_compose_elements
from .orientations import orient
from .tamari import covers, dmax, dmin, leq
from .transfer import p_map, q_map


def _int(text, message):
    """int(text), or a DiagramError saying what was expected."""
    try:
        return int(text)
    except ValueError:
        raise DiagramError(message) from None


def parse_shape(text):
    kind = {"T": TREE, "M": MODULE, "I": INNER}.get(text[:1].upper())
    message = "shapes look like T4, M2,3 or I1,2"
    nums = tuple(_int(x, message) for x in text[1:].split(","))
    if kind is None or len(nums) != (1 if kind == TREE else 2):
        raise DiagramError(message)
    return ShapeClass(kind, nums)


def _split_top(text, sep=";"):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "({<[":
            depth += 1
        elif ch in ")}>]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_keys(text, n):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DiagramError("expected a bracketed edge list")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [parse_edge(tok.strip(), n) for tok in inner.split(",")]


def parse_generator(text, which):
    """Parse the generator literal; returns a one-term formal sum."""
    text = text.strip()
    coef = 1
    if "*" in text and not text.lstrip().startswith("("):
        head, _star, rest = text.partition("*")
        coef = _int(head, "a coefficient is an integer, as in 2 * (...)")
        text = rest.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise DiagramError("generator literals are parenthesized")
    sections = _split_top(text[1:-1])
    diagram = parse(sections[0])
    n = leaf_count(diagram)
    perm = perms.identity(n)
    if len(sections) > 1 and sections[1] and sections[1] != "id":
        message = "labeling must be a permutation of 1..%d or id" % n
        perm = tuple(_int(tok, message) for tok in sections[1].split())
        if sorted(perm) != list(range(1, n + 1)):
            raise DiagramError(message)
    orientation = None
    if len(sections) > 2 and sections[2]:
        orientation = orient(_parse_keys(sections[2], n), 1)
        if orientation is None:
            raise DiagramError("an orientation lists each edge once")
    if len(sections) > 4:
        raise DiagramError("a generator has at most four sections, not %r"
                           % sections[4])
    metric = None
    if len(sections) > 3:
        if not sections[3].startswith("metric:"):
            raise DiagramError("the fourth section is metric:[...], not %r"
                               % sections[3])
        metric = _parse_keys(sections[3][len("metric:"):], n)
    if which == "c":
        if metric is not None:
            raise DiagramError("a chain-operad generator has no metric "
                               "marking, so no %r section" % sections[3])
        gen, sign = c_generator(diagram, perm, orientation)
    else:
        if metric is None and orientation is not None:
            metric = list(orientation.keys)
        gen, sign = q_generator(diagram, perm, metric, orientation)
    return unit(gen, coef * sign)


def parse_capped(text, which):
    """`parse_generator`, refused past the size cap: the commands that
    build a whole shape class from the generator go through here."""
    x = parse_generator(text, which)
    for gen, _c in x:
        check_size_cap(shape_class(gen.diagram))
    return x


def fmt_generator(gen, coef=None):
    n = leaf_count(gen.diagram)
    perm = " ".join(str(p) for p in gen.perm)
    if isinstance(gen, CGenerator):
        keys = ", ".join(fmt_edge(k, n) for k in gen.keys)
        body = "(%s ; %s ; [%s])" % (fmt(gen.diagram), perm, keys)
    else:
        keys = ", ".join(fmt_edge(k, n) for k in gen.metric)
        body = "(%s ; %s ; [%s] ; metric:[%s])" % (fmt(gen.diagram), perm,
                                                   keys, keys)
    return body if coef is None else "%+d * %s" % (coef, body)


def gen_json(gen, coef):
    n = leaf_count(gen.diagram)
    keys = gen.keys if isinstance(gen, CGenerator) else gen.metric
    out = {"coef": coef, "diagram": fmt(gen.diagram), "perm": list(gen.perm),
           "orientation": [fmt_edge(k, n) for k in keys]}
    if isinstance(gen, QGenerator):
        out["metric"] = out["orientation"]
    return out


def emit_element(x, args, pair=False):
    if args.format == "json":
        if pair:
            data = [{"left": gen_json(a, 1), "right": gen_json(b, 1),
                     "coef": c} for (a, b), c in x]
        else:
            data = [gen_json(g, c) for g, c in x]
        print(json.dumps(data, indent=2, sort_keys=True))
        return
    if not x:
        print("0")
        return
    for key, coef in x:
        if pair:
            a, b = key
            print("%+d * %s (x) %s" % (coef, fmt_generator(a),
                                       fmt_generator(b)))
        else:
            print(fmt_generator(key, coef))


def cmd_enumerate(args):
    shape = parse_shape(args.shape)
    check_size_cap(shape)
    # a degree above the corolla's has no diagrams; below zero it is no degree
    if args.degree < 0:
        raise DiagramError("a degree is a nonnegative integer, not %d"
                           % args.degree)
    items = enumerate_class(shape, args.degree)
    if args.format == "json":
        print(json.dumps([fmt(d) for d in items], indent=2))
    else:
        for d in items:
            print(fmt(d))
        print("# %d diagrams" % len(items))


def cmd_boundary(args):
    x = parse_generator(args.generator, args.operad)
    emit_element(boundary_c(x) if args.operad == "c" else boundary_q(x), args)


def cmd_compose(args):
    x = parse_generator(args.x, args.operad)
    y = parse_generator(args.y, args.operad)
    fn = compose_elements if args.operad == "c" else q_compose_elements
    emit_element(fn(x, args.index, y), args)


def cmd_minmax(args):
    d = parse(args.diagram)
    lo, hi = dmin(d), dmax(d)
    if args.dot:
        print(poset_dot(shape_class(d)))
        return
    if args.format == "json":
        print(json.dumps({"min": fmt(lo), "max": fmt(hi)}, indent=2))
    else:
        print("min: %s" % fmt(lo))
        print("max: %s" % fmt(hi))


def cmd_leq(args):
    b1, b2 = parse(args.b1), parse(args.b2)
    shape = shape_class(b1)
    # the size cap holds before leq walks the order
    check_size_cap(shape)
    dot = poset_dot(shape) if args.dot else None
    result = leq(b1, b2)
    if dot is not None:
        print(dot)
        return
    if args.format == "json":
        print(json.dumps({"leq": result}))
    else:
        print("true" if result else "false")
    return 0 if result else 1


def cmd_qmap(args):
    emit_element(q_map(parse_capped(args.generator, "c")), args)


def cmd_pmap(args):
    emit_element(p_map(parse_capped(args.generator, "q")), args)


def cmd_diagonal(args):
    from .diagonal import delta_c, delta_c_mod_higher
    x = parse_capped(args.corolla, "c")
    for gen, _c in x:
        if not is_corolla(gen.diagram):
            raise DiagramError("the diagonal command expects a corolla")
    fn = delta_c_mod_higher if args.mod_higher else delta_c
    emit_element(fn(x), args, pair=True)


def cmd_homology(args):
    from .homology import homology_report, is_contractible
    shape = parse_shape(args.shape)
    which = "q" if args.q else "c"
    if args.dot:
        print(complex_dot(shape, which))
        return
    report = homology_report(shape, which)
    if args.format == "json":
        print(json.dumps({"shape": repr(report.shape), "which": which,
                          "f_vector": list(report.f_vector),
                          "betti": list(report.betti),
                          "euler": report.euler,
                          "critical": list(report.critical),
                          "acyclic_over_z": is_contractible(report)},
                         indent=2))
    else:
        for line in report.lines():
            print(line)


def cmd_tensor_ainf(args):
    from .endo import load_structures, residual, tensor_structure
    if args.arity < 2:
        raise ValueError("the multiplication relation starts at arity 2")
    shape = ShapeClass(TREE, (args.arity,))
    check_size_cap(shape)
    sa = load_structures(args.fixture_a)
    sb = load_structures(args.fixture_b)
    pair = tensor_structure(sa, sb, max_mu=args.arity, max_inner=1)
    defect = residual(pair, shape)
    ok = not defect
    entries = len({args for args, _ in defect.terms})
    if args.format == "json":
        print(json.dumps({"arity": args.arity, "residual_zero": ok,
                          "entries": entries}))
    else:
        print("tensor structure relation at arity %d: %s"
              % (args.arity, "holds" if ok else
                 "FAILS (%d entries)" % entries))
    return 0 if ok else 1


def cmd_verify(args):
    from .verify import run_checks, run_suite
    if args.format == "text":
        return 1 if run_suite(args.max_leaves) else 0
    checks = [result.record() for result in run_checks(args.max_leaves)]
    passed = sum(check["ok"] for check in checks)
    print(json.dumps({"checks": checks, "passed": passed}, indent=2))
    return 0 if passed == len(checks) else 1


def poset_dot(shape):
    check_size_cap(shape)
    lines = ["digraph covers {"]
    for b in enumerate_class(shape, 0):
        lines.append('  "%s";' % fmt(b))
        for b2, step in covers(b):
            lines.append('  "%s" -> "%s" [label="move %d"];'
                         % (fmt(b), fmt(b2), step.move))
    lines.append("}")
    return "\n".join(lines)


def complex_dot(shape, which):
    from .homology import cell_generators

    def label(gen):
        if isinstance(gen, CGenerator):
            return fmt(gen.diagram)
        n = leaf_count(gen.diagram)
        return "%s | m=%s" % (fmt(gen.diagram),
                              ",".join(fmt_edge(k, n) for k in gen.metric))

    layers, image = cell_generators(shape, which)
    lines = ["digraph boundary {"]
    for layer in layers:
        for gen in layer:
            for gen2, coef in image(gen):
                lines.append('  "%s" -> "%s" [label="%+d"];'
                             % (label(gen), label(gen2), coef))
    lines.append("}")
    return "\n".join(lines)


@cache
def build_parser():
    """The argparse front end, built on the first call and shared after
    that; it binds the `cmd_*` functions as they are at that call."""
    ap = argparse.ArgumentParser(prog="planarops", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = command("enumerate", cmd_enumerate, "diagrams of a shape class by degree")
    p.add_argument("shape")
    p.add_argument("degree", type=int)

    p = command("boundary", cmd_boundary, "boundary of a generator")
    p.add_argument("operad", choices=("c", "q"))
    p.add_argument("generator")

    p = command("compose", cmd_compose, "operadic composition x o_i y")
    p.add_argument("operad", choices=("c", "q"))
    p.add_argument("x")
    p.add_argument("index", type=int)
    p.add_argument("y")

    p = command("minmax", cmd_minmax, "minimal and maximal binary expansions")
    p.add_argument("diagram")

    p = command("leq", cmd_leq, "compare binary diagrams in the order")
    p.add_argument("b1")
    p.add_argument("b2")

    p = command("qmap", cmd_qmap, "subdivision image of a chain generator")
    p.add_argument("generator")

    p = command("pmap", cmd_pmap, "projection image of a cubical generator")
    p.add_argument("generator")

    p = command("diagonal", cmd_diagonal, "tensor diagonal of a corolla")
    p.add_argument("corolla")
    p.add_argument("--mod-higher", action="store_true",
                   help="delete factors using higher inner products")

    p = command("homology", cmd_homology, "Betti numbers of a shape class")
    p.add_argument("shape")
    p.add_argument("--q", action="store_true", help="use the cubical complex")

    p = command("tensor-ainf", cmd_tensor_ainf,
                "check a tensor-product structure relation")
    p.add_argument("fixture_a")
    p.add_argument("fixture_b")
    p.add_argument("--arity", type=int, required=True)

    p = command("verify", cmd_verify, "run the exhaustive invariant suites")
    p.add_argument("--max-leaves", type=int, default=6)

    for name in ("minmax", "leq", "homology"):
        sub.choices[name].add_argument("--dot", action="store_true",
                                       help="emit a DOT digraph instead")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "dot", False) and args.format == "json":
            raise ValueError("--dot prints DOT; it takes no --format json")
        code = args.fn(args)
    except BrokenPipeError:
        # the reader went away (`planarops ... | head`): exit quietly as
        # SIGPIPE would, with stdout on devnull so the exit flush is silent
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DiagramError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the diagram walks recurse once per nesting level
        print("error: diagram nests too deeply", file=sys.stderr)
        return 2
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
