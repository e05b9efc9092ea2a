"""Evaluation into the endomorphism operad of a finite graded module.

A structure set holds a degree-1 differential d, multiplications mu_k of
degree 2-k, bimodule maps lambda_{j,k} of degree 1-j-k on the module itself
(the canonical bimodule), and scalar-valued pairings rho_{j,k} of degree
rho_degree-j-k, the base degree rho_degree shifted down by j+k.  Corollas
evaluate to these maps; one-edge diagrams pick up the sign of the
corresponding structure relation, and in general the evaluation is
multiplicative for the Koszul composition

    (f o_i g)(a_1, ...) = (-1)^{|g| (|a_1|+...+|a_{i-1}|)} f(..., g(...), ...)

with relabelings acting by permuting graded tensor factors.  Everything is
exact rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import (
    INNER, MODULE, TREE, ShapeClass, corolla_of, shape_class, shapes_up_to,
)
from .formal import FormalSum, evaluate
from .operad_c import boundary_c, c_unit, decompose_corollas
from . import perms


class StructureError(ValueError):
    pass


def neg_one_pow(n):
    """(-1)^n as an int for every integer n; `(-1) ** n` is a float when
    n < 0, and degrees here can be negative."""
    return -1 if n % 2 else 1


@dataclass(frozen=True)
class GradedModule:
    names: tuple
    degrees: tuple

    def __post_init__(self):
        if not self.names:
            raise StructureError("zero module is not allowed")

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        if name not in self.names:
            raise StructureError("unknown basis element %r" % (name,))
        return self.names.index(name)


class MultiMap(FormalSum):
    """A homogeneous multilinear map with sparse exact-rational entries.

    A formal sum whose keys are ``(args, output)``: `args` is a tuple of
    basis indices and `output` a basis index of the module.  A
    scalar-valued map (``out == "scalar"``) has the single output ``None``,
    of degree 0.  Every entry is checked against the type of the map.
    """

    __slots__ = ("module", "arity", "out", "degree")

    def __init__(self, module, arity, out, degree, terms=()):
        self.module = module
        self.arity = arity
        self.out = out                      # "module" | "scalar"
        self.degree = degree
        super().__init__(terms)

    def zero(self):
        return MultiMap(self.module, self.arity, self.out, self.degree)

    def add_term(self, key, coef):
        args, o = key
        if len(args) != self.arity:
            raise StructureError("entry %s has arity %d, not %d"
                                 % (args, len(args), self.arity))
        if coef == 0:
            return
        if (o is None) != (self.out == "scalar"):
            raise StructureError("output %r does not fit a %s map"
                                 % (o, self.out))
        degs = self.module.degrees
        if (sum(degs[a] for a in args) + self.degree
                != (0 if o is None else degs[o])):
            raise StructureError("inhomogeneous entry %s -> %s" % (args, o))
        FormalSum.add_term(self, key, coef)

    def __repr__(self):
        return "MultiMap(arity=%d, out=%s, deg=%d, %d terms)" % (
            self.arity, self.out, self.degree, len(self.terms))


def compose_at(f, i, g):
    """(f o_i g) with the Koszul sign on the passed-over inputs."""
    if g.out != "module":
        raise StructureError("inner factor must land in the module")
    if not 1 <= i <= f.arity:
        raise StructureError("slot out of range")
    degs = f.module.degrees
    out = MultiMap(f.module, f.arity + g.arity - 1, f.out,
                   f.degree + g.degree)
    for (f_args, f_out), f_c in f.terms.items():
        for (g_args, g_out), g_c in g.terms.items():
            if f_args[i - 1] != g_out:
                continue
            sign = neg_one_pow(
                g.degree * sum(degs[a] for a in f_args[:i - 1]))
            args = f_args[:i - 1] + g_args + f_args[i:]
            out.add_term((args, f_out), f_c * g_c * sign)
    return out


def sigma_sharp(f, sigma):
    """f composed with the graded permutation of tensor factors.

    (f o sigma_#)(x_1,...,x_k) = Koszul * f(x_{sigma^{-1}(1)}, ...).
    """
    inv = perms.invert(sigma)
    degs = f.module.degrees
    out = f.zero()
    for (f_args, f_out), f_c in f.terms.items():
        # f receives (x_{inv(1)}, ..., x_{inv(k)}) = f_args, so x_j is
        # f_args at position sigma(j)
        x = tuple(f_args[p - 1] for p in sigma)
        # Koszul: each crossing of two odd factors costs a sign
        sign = perms.parity([inv[r] for r in range(f.arity)
                             if degs[f_args[r]] % 2])
        out.add_term((x, f_out), f_c * sign)
    return out


def precompose_differential(f, d):
    """f o d_tensor: d inserted at each input of f.  Since |d| = 1, the
    Koszul sign of `compose_at` is the tensor differential's.  Most maps
    the checks meet are zero, and those skip the per-slot compositions."""
    out = MultiMap(f.module, f.arity, f.out, f.degree + 1)
    if f:
        for i in range(1, f.arity + 1):
            out.add(compose_at(f, i, d))
    return out


def commutator(d, f):
    """[D, f] = d o f - (-1)^{|f|} f o d_tensor; d o f is zero for a
    scalar-valued f."""
    out = (compose_at(d, 1, f) if f.out == "module"
           else MultiMap(f.module, f.arity, f.out, f.degree + 1))
    return out.add(precompose_differential(f, d), -neg_one_pow(f.degree))


# ---------------------------------------------------------------------------
# structure sets

def map_type(shape, rho_degree):
    """(arity, output, degree) of the structure map of the corolla of
    `shape`: mu_n for T_n, lambda_{j,k} for M_{j,k}, rho_{j,k} for I_{j,k}."""
    if shape.kind == TREE:
        (n,) = shape.params
        return n, "module", 2 - n
    j, k = shape.params
    if shape.kind == MODULE:
        return j + k + 1, "module", 1 - j - k
    return j + k + 2, "scalar", rho_degree - j - k


@dataclass
class StructureSet:
    """A differential `d` and the structure maps of the corolla shapes.

    `maps` holds one MultiMap per ShapeClass: mu_n under T_n, lambda_{j,k}
    under M_{j,k} and rho_{j,k} under I_{j,k}.  `op(shape)` returns the
    stored map, or the zero map of the type `map_type` gives the shape.

    `_images` memoizes `eval_generator`.  The images depend on `maps`,
    `rho_degree` (the degree of a missing shape's zero map) and `module`,
    so `set_map`, the one way to write `maps`, and every assignment to a
    field empty it.
    """

    module: GradedModule
    d: MultiMap
    maps: dict = field(default_factory=dict)     # ShapeClass -> MultiMap
    rho_degree: int = 0
    name: str = ""
    _images: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)         # generator -> MultiMap

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name != "_images" and "_images" in self.__dict__:
            self._images.clear()

    def set_map(self, shape, m):
        """Store `m` as the structure map of `shape`."""
        self.maps[shape] = m
        self._images.clear()

    def op(self, shape):
        got = self.maps.get(shape)
        return got if got is not None else MultiMap(
            self.module, *map_type(shape, self.rho_degree))

    def mu_map(self, k):
        return self.op(ShapeClass(TREE, (k,)))

    def lam_map(self, j, k):
        return self.op(ShapeClass(MODULE, (j, k)))

    def rho_map(self, j, k):
        return self.op(ShapeClass(INNER, (j, k)))

    def corolla_map(self, diagram):
        return self.op(shape_class(diagram))

    def use_canonical_bimodule(self, max_arity):
        """lambda_{j,k} := mu_{j+k+1} for all module shapes up to the arity
        cap ((0,0) is not a diagram)."""
        for shape in shapes_up_to(max_arity, kinds=(MODULE,)):
            self.set_map(shape, self.mu_map(sum(shape.params) + 1))
        return self


def eval_generator(gen, structures):
    """The image of a generator in the endomorphism operad, memoized on the
    structure set; shared, and only read by its callers."""
    images = structures._images
    image = images.get(gen)
    if image is None:
        image = images[gen] = evaluate(
            decompose_corollas(gen), lambda g: eval_generator(g, structures),
            structures.corolla_map, compose_at,
            lambda sigma, f: sigma_sharp(f, sigma))
    return image


def eval_element(x, structures):
    """Linear extension of the operad map over a formal sum."""
    return x.apply(lambda gen: eval_generator(gen, structures))


def residual(structures, shape):
    """The defect of the structure relation at `shape`: [d, m] minus the
    evaluated boundary of the corolla, m its structure map.  A structure
    set is a dg map out of the chain operad exactly when every residual
    is zero."""
    s = structures
    return commutator(s.d, s.op(shape)) - eval_element(
        boundary_c(c_unit(corolla_of(shape))), s)


# the error text of a failed relation, by the kind of its corolla
_RELATION = {TREE: "multiplication relation fails at %d",
             MODULE: "bimodule relation fails at (%d,%d)",
             INNER: "pairing relation fails at (%d,%d)"}


def validate_structures(structures):
    """Check d^2 = 0 and the structure relation on every shape class up to
    four leaves; raises when any defect is nonzero."""
    s = structures
    if compose_at(s.d, 1, s.d):
        raise StructureError("d^2 != 0 in %s" % s.name)
    for shape in shapes_up_to(4):
        if residual(s, shape):
            raise StructureError("%s in %s" % (
                _RELATION[shape.kind] % shape.params, s.name))
    return structures


# ---------------------------------------------------------------------------
# tensor products

def tensor_module(ma, mb):
    names = tuple("%s|%s" % (na, nb) for na in ma.names for nb in mb.names)
    degrees = tuple(da + db for da in ma.degrees for db in mb.degrees)
    return GradedModule(names, degrees)


def identity_map(module):
    return MultiMap(module, 1, "module", 0,
                    [(((a,), a), 1) for a in range(module.dim)])


def tensor_maps(fa, fb):
    """fa (x) fb on A (x) B, with the arity and output kind of fa:

        (a_1|b_1, ..., a_n|b_n) -> +- fa(a_1, ..., a_n) | fb(b_1, ..., b_n)

    with the Koszul sign of moving fb past a_1, ..., a_n and of
    unshuffling the inputs to a_1, ..., a_n, b_1, ..., b_n.  This is the
    one sign rule of A (x) B: its differential and every evaluated map."""
    da, db = fa.module.degrees, fb.module.degrees
    dim_b = fb.module.dim
    n = fa.arity
    out = MultiMap(tensor_module(fa.module, fb.module), n, fa.out,
                   fa.degree + fb.degree)
    for (a_args, a_out), a_c in fa.terms.items():
        koszul = neg_one_pow(fb.degree * sum(da[a] for a in a_args))
        for (b_args, b_out), b_c in fb.terms.items():
            args = tuple(a * dim_b + b for a, b in zip(a_args, b_args))
            # (a1|b1, ..., an|bn) -> (a1..an | b1..bn) sends a_i to i
            # and b_i to n+i; the odd factors' targets give the sign
            odd = [t for i, (a, b) in enumerate(zip(a_args, b_args))
                   for t, deg in ((i, da[a]), (n + i, db[b])) if deg % 2]
            o = None if a_out is None else a_out * dim_b + b_out
            out.add_term((args, o), koszul * perms.parity(odd) * a_c * b_c)
    return out


def pair_evaluate(tensor_elem, sa, sb):
    """Evaluate a sum of tensor-square generators as a map on A (x) B, of
    the type of its first term; FormalSum() for the empty sum."""
    return tensor_elem.apply(lambda pair: tensor_maps(
        eval_generator(pair[0], sa), eval_generator(pair[1], sb)))


def tensor_structure(sa, sb, max_mu=3, max_inner=2):
    """The structure induced on A (x) B through the chain diagonal."""
    from .diagonal import delta_c

    ma, mb = sa.module, sb.module
    d = (tensor_maps(sa.d, identity_map(mb))
         + tensor_maps(identity_map(ma), sb.d))
    out = StructureSet(d.module, d, name="%s(x)%s" % (sa.name, sb.name),
                       rho_degree=sa.rho_degree + sb.rho_degree)
    for shape in (shapes_up_to(max_mu, kinds=(TREE, MODULE))
                  + shapes_up_to(max_inner + 2, kinds=(INNER,))):
        out.set_map(shape, pair_evaluate(delta_c(c_unit(corolla_of(shape))),
                                         sa, sb))
    return out


# ---------------------------------------------------------------------------
# fixtures

def _section(name, form, build):
    """build(), with malformed fixture input reported as a StructureError
    naming the section and the form it expects."""
    try:
        return build()
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        detail = ": %s" % exc if isinstance(exc, StructureError) else ""
        raise StructureError("fixture: %s expects %s%s"
                             % (name, form, detail)) from None


def structures_from_dict(data):
    basis = _section("the file", "a JSON object with the key 'basis'",
                     lambda: data["basis"])
    module = _section("basis", 'entries {"name": "u", "degree": 0}',
                      lambda: GradedModule(
                          tuple(b["name"] for b in basis),
                          tuple(int(b["degree"]) for b in basis)))

    def build(arity, out, degree, entries):     # entries: (args, out, coef)
        return MultiMap(module, arity, out, degree, [
            ((tuple(module.index(a) for a in args),
              None if o is None else module.index(o)), Fraction(c))
            for args, o, c in entries])

    d = _section("d", 'entries ["src", "dst", "coef"]', lambda: build(
        1, "module", 1, [([a], o, c) for a, o, c in data.get("d", [])]))
    s = StructureSet(module, d, name=data.get("name", ""), rho_degree=_section(
        "rho_degree", "an integer", lambda: int(data.get("rho_degree", 0))))

    def structure(kind, key, entries):
        shape = ShapeClass(kind, tuple(int(t) for t in key.split(",")))
        corolla_of(shape)                       # rejects T_1, I_{-1,2}, ...
        if kind == INNER:                       # scalar: no output named
            entries = [(args, None, c) for args, c in entries]
        s.set_map(shape, build(*map_type(shape, s.rho_degree), entries))

    for section, kind, form in (
            ("mu", TREE, 'an arity k >= 2 and entries '
             '[["a1", ..., "ak"], "out", "coef"]'),
            ("rho", INNER, 'a key "j,k" and entries '
             '[["a1", ..., "a(j+k+2)"], "coef"]')):
        for key, entries in _section(section, "an object", lambda: list(
                data.get(section, {}).items())):
            _section('%s "%s"' % (section, key), form,
                     lambda: structure(kind, key, entries))
    if data.get("bimodule", "canonical") == "canonical":
        s.use_canonical_bimodule(_section("max_arity", "an integer", lambda:
                                          int(data.get("max_arity", 5))))
    return s


def load_structures(path):
    """The structures of a JSON fixture, checked by `validate_structures`."""
    with open(path) as fh:
        data = json.load(fh)
    return validate_structures(structures_from_dict(data))
