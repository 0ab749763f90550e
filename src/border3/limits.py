"""Curves on chart models and their limit planes.

The chart map is evaluated on exact polynomials: each chart coordinate of a
polynomial curve is a polynomial in t with exact rational coefficients, and
the model's embedding is a polynomial in those.  On a Segre chart the
embedding is the outer product of the factor blocks (1, x_1, ..., x_{d-1}),
so it is computed on plain coefficient lists, by convolving the blocks'
coefficient vectors with Kronecker products (_segre_polynomial); every
Segre factor block is read through the model's _block_slices.  Other
charts evaluate model.phi on _Poly ring elements.  Tangent frames and
second-order offsets are coefficients of that same evaluation along a
chart line (_line_coefficient).  The truncated series
types (ScalarSeries, VectorSeries) are coefficient records with no
arithmetic; APIs that take or return them truncate the exact polynomial
value at the series' order.

The limit at t=0 of the moving span of three curve points is computed by
one valuation row reduction of the polynomial rows modulo t^D.  Row
operations keep the triple wedge, a polynomial of degree below D = 1 + the
sum of the row degrees, so no coefficient past t^D can change a row order
or a leading vector, and a row vanishing modulo t^D proves the wedge
identically zero.  The reduction runs on integers: each row is scaled once
by the lcm of its denominators, and each update scales the row it changes
by a positive integer.  Multiplying a row by a nonzero constant changes
neither its order nor the direction of its leading vector, and multiplies
the wedge by a nonzero constant, so the orders, the limit plane and the
degeneracy verdict are those of the reduction over Q.  Colliding
configurations are classified by how the limit plane meets the affine
tangent space at the collision point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from operator import add

from ._linalg import _back_substitute, _denominator, _norm, _small_echelon, rank
from .normal_forms import segre_model
from .polytools import uadd, umul, uscale, utrim

MAX_AMBIENT = 64  # widest ambient space limit_plane reduces in
MAX_PREC = 1024  # largest wedge degree bound D that limit_plane reduces modulo t^D


class PrecisionError(RuntimeError):
    """A computation needs more series terms than are tracked."""


class ScalarSeries:
    """Truncated power series sum_k c_k t^k for k < prec: a coefficient record.

    The coefficients are exact (integral Fractions as int).  The record has
    no arithmetic: series values are computed on exact polynomials and
    truncated when a series is built.
    """

    __slots__ = ("prec", "coeffs")

    def __init__(self, coeffs, prec=None):
        coeffs = tuple(_norm(c) for c in coeffs)
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise ValueError("series need at least one tracked coefficient")
        if len(coeffs) < prec:
            coeffs = coeffs + (0,) * (prec - len(coeffs))
        elif len(coeffs) > prec:
            coeffs = coeffs[:prec]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarSeries is immutable")

    @classmethod
    def constant(cls, c, prec):
        return cls((c,), prec)

    def coeff(self, k):
        if not 0 <= k < self.prec:
            raise PrecisionError(f"coefficient {k} is beyond truncation {self.prec}")
        return self.coeffs[k]

    def order(self):
        """Index of the first nonzero tracked coefficient, or None."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_zero(self):
        return self.order() is None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarSeries.constant(other, self.prec)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.prec, self.coeffs))

    def __repr__(self):
        return f"ScalarSeries({self.coeffs!r})"


class VectorSeries:
    """Fixed-length vector of scalar series sharing one truncation order."""

    __slots__ = ("prec", "parts")

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("empty vector series")
        prec = parts[0].prec
        if any(p.prec != prec for p in parts):
            raise ValueError("vector series parts must share a truncation order")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("VectorSeries is immutable")

    @classmethod
    def from_polynomial(cls, coeff_vectors, prec):
        """Curve sum_k t^k * coeff_vectors[k] at the given truncation."""
        data = _curve_data(coeff_vectors)
        return cls(ScalarSeries(col[:prec], prec) for col in zip(*data))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def coeff_vector(self, k):
        return tuple(p.coeff(k) for p in self.parts)

    def polynomial_coefficients(self):
        """Tracked coefficient vectors, trailing zero vectors trimmed."""
        return _trimmed(list(zip(*(p.coeffs for p in self.parts))))

    def order(self):
        orders = [p.order() for p in self.parts]
        orders = [o for o in orders if o is not None]
        return min(orders) if orders else None

    def __eq__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"VectorSeries({[p.coeffs for p in self.parts]!r})"


class _Poly:
    """Exact polynomial sum_k c_k t^k: a ring element for model.phi.

    Holds a polytools coefficient list (index k for t^k, trailing zeros
    trimmed, integral Fractions as int).  Sums and products are exact, so
    no truncation order is tracked.  Its only user is _ambient_polynomial,
    on the chart maps of non-Segre models.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = utrim([_norm(c) for c in coeffs])

    @classmethod
    def _of(cls, coeffs):
        """The _Poly of a trimmed, _norm'ed coefficient list, taken as is."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _Poly((other,))
        elif not isinstance(other, _Poly):
            return NotImplemented
        return _Poly._of(uadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Poly):
            return _Poly._of(umul(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return _Poly._of(uscale(self.coeffs, other))
        return NotImplemented

    __rmul__ = __mul__


def _trimmed(vecs):
    """The list of coefficient vectors without its trailing zero vectors,
    down to one."""
    while len(vecs) > 1 and not any(vecs[-1]):
        vecs.pop()
    return vecs


def _has_fraction(values):
    return Fraction in set(map(type, values))


def _coefficient_vectors(values):
    """Coefficient vectors of a vector of _Poly or scalar entries.

    Trailing zero vectors are trimmed down to one.
    """
    coeffs = [v.coeffs if isinstance(v, _Poly) else (_norm(v),) for v in values]
    return list(zip_longest(*coeffs, fillvalue=0)) or [(0,) * len(coeffs)]


def _curve_data(curve):
    """Coefficient vectors of a plain curve: nonempty, of one length."""
    data = [tuple(v) for v in curve]
    if not data:
        raise ValueError("a curve needs at least one coefficient vector")
    if any(len(v) != len(data[0]) for v in data):
        raise ValueError("coefficient vectors must share a length")
    return data


def embed_curve(model, curve):
    """Ambient coordinates of the model chart map along a chart curve.

    The chart map is evaluated on the exact polynomial the curve's tracked
    coefficients spell, then truncated at the curve's order: truncation
    modulo t^prec is a ring homomorphism, so this is the series value.
    """
    return VectorSeries.from_polynomial(
        _ambient_polynomial(model, curve.polynomial_coefficients()), curve.prec)


def parameterize(model, tangent_series):
    """Curve on the model through its base point with the given tangent expansion.

    The tangent series, a VectorSeries, lives in the chart coordinates; the
    result carries the full ambient coordinates at the same truncation order,
    with every graded component of the chart map evaluated exactly.
    """
    if len(tangent_series) != model.tangent_dim:
        raise ValueError("tangent series has wrong length for the model chart")
    return embed_curve(model, tangent_series)


def _line_coefficient(model, chart_point, direction, k):
    """s^k coefficient vector of the chart map along chart_point + s*direction."""
    amb = _ambient_polynomial(model, _curve_data([chart_point, direction]))
    return list(amb[k]) if k < len(amb) else [0] * model.ambient_dim


def affine_tangent_frame(model, chart_point):
    """Rows spanning the affine tangent space at the chart point's image:
    the image, then the s^1 coefficient along each chart axis."""
    cp = tuple(chart_point)
    axes = [[int(i == j) for i in range(len(cp))] for j in range(len(cp))]
    return ([_line_coefficient(model, cp, (0,) * len(cp), 0)]
            + [_line_coefficient(model, cp, e, 1) for e in axes])


def second_order_offset(model, chart_point, direction):
    """s^2 coefficient vector of the chart map along chart_point + s*direction."""
    return _line_coefficient(model, chart_point, direction, 2)


def second_fundamental_vanishes(model, chart_point, direction):
    """Whether the second-order offset along the direction stays tangent.

    The frame is independent (its t^0 and t^1 slots read [[1, p], [0, I]]),
    so its rank is its length.
    """
    frame = affine_tangent_frame(model, chart_point)
    vec = second_order_offset(model, chart_point, direction)
    return rank(frame + [vec]) == len(frame)


@dataclass(frozen=True)
class LimitPlaneResult:
    """Limit of the moving span of three curve points.

    plane holds a rref-canonical basis of the limit subspace (empty when
    degenerate), orders the valuations of the reduced rows, and
    leading_order the valuation of the full triple wedge along the curves
    (the sum of the row valuations; None when degenerate).
    """

    plane: tuple
    orders: tuple
    leading_order: int | None
    degenerate: bool = False

    def sample(self, coeffs):
        if self.degenerate:
            raise ValueError("a degenerate wedge has no plane to sample")
        if len(coeffs) != len(self.plane):
            raise ValueError("need one coefficient per basis vector")
        # sum den * c * x on integers, den the product of the lcms of the
        # denominators of the plane and of the coefficients
        pden = math.lcm(*map(_denominator, chain.from_iterable(self.plane)))
        cden = math.lcm(*map(_denominator, coeffs))
        den = pden * cden
        out = [0] * len(self.plane[0])
        for c, row in zip(coeffs, self.plane):
            if c:
                c = c.numerator * (cden // c.denominator)
                for i, x in enumerate(row):
                    if x:
                        out[i] += c * x.numerator * (pden // x.denominator)
        if den == 1:
            return tuple(out)
        return tuple(Fraction(x, den) if x % den else x // den for x in out)


def _order(row, start=0):
    """Index of the first nonzero coefficient vector from start on, or None."""
    return next((k for k in range(start, len(row)) if any(row[k])), None)


def _integer_row(row):
    """A row's coefficient vectors times the lcm of their denominators.

    A row of ints is returned as it is: _reduce_rows replaces a row's
    coefficient vectors, and extends the row list it was given, but never
    writes into a coefficient vector.
    """
    if set(map(type, chain.from_iterable(row))) <= {int}:
        return row
    den = math.lcm(*map(_denominator, chain.from_iterable(row)))
    return [[x.numerator * (den // x.denominator) for x in v] for v in row]


def _reduce_rows(rows, bound):
    """Valuation echelon of polynomial rows modulo t^bound, on integers.

    Each row is a list of coefficient vectors, index k holding the t^k
    vector.  A row whose leading vector depends on the leading vectors of
    rows of no larger order loses it to t-shifted copies of them, which
    strictly raises its order.  Orders stay below bound, so the loop ends
    within 3 * bound passes.  Returns (leads, echelon), or None when a row
    vanishes modulo t^bound: leads are the (order, leading vector) pairs by
    increasing order, and echelon is the last pass's integer echelon of
    those leading vectors, as (pivot column, row) pairs by increasing
    pivot, each row zero left of its pivot.

    The reduction is fraction-free.  Each row is first scaled by the lcm of
    its denominators.  Each pass runs ``_small_echelon`` on the leading
    vectors, by increasing order, with unit vector n appended to the n-th.
    The first whose reduced vector is zero on the ambient entries, so that
    its pivot lies in the appended part, depends on those before it, and
    that part is an integer dependency s * lead_i + sum_j c_j * lead_j = 0,
    made primitive with s > 0; row_i then becomes s * row_i + sum_j c_j *
    t^(order_i - order_j) * row_j, divided by the gcd of its entries when
    s != 1.  Every row stays a positive rational multiple of the row a
    reduction over Q would hold: scaling a row by a nonzero constant changes
    neither its order nor the direction of its leading vector, and scales
    the triple wedge by a nonzero constant.
    """
    # each row list is a fresh slice, which the updates below may extend
    rows = [_integer_row(r[:bound]) for r in rows]
    orders = [_order(r) for r in rows]
    units = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
    while None not in orders:
        idx = sorted(range(len(rows)), key=orders.__getitem__)
        leads = [rows[i][orders[i]] for i in idx]
        width = len(leads[0])
        ech = []
        for p, vec in _small_echelon([[*lead, *e] for lead, e in zip(leads, units)]):
            if p >= width:
                break
            ech.append((p, vec))
        else:
            return ([(orders[i], lead) for i, lead in zip(idx, leads)],
                    sorted((p, vec[:width]) for p, vec in ech))
        n = len(ech)
        combo = vec[width:]
        i = idx[n]
        g = math.gcd(*combo)
        if combo[n] < 0:
            g = -g
        s = combo[n] // g
        row = rows[i] if s == 1 else [[s * a for a in v] for v in rows[i]]
        for m in range(n):
            c = combo[m] // g
            if c:
                j = idx[m]
                sh = orders[i] - orders[j]
                src = rows[j][:bound - sh]
                row.extend([[0] * width] * (sh + len(src) - len(row)))
                for k, v in enumerate(src, sh):
                    row[k] = [a + c * b for a, b in zip(row[k], v)]
        if s != 1:
            content = math.gcd(*(a for v in row for a in v))
            if content > 1:
                row = [[a // content for a in v] for v in row]
        rows[i] = row
        orders[i] = _order(row, orders[i] + 1)
    return None


def limit_plane(c1, c2, c3):
    """Limit at t=0 of the span of three moving ambient points.

    Each curve is a sequence of ambient coefficient vectors, index k holding
    the t^k vector, read as an exact polynomial curve.  Row
    operations keep the triple wedge of the rows, a polynomial of degree
    below D = 1 + the sum of the row degrees, and the wedge vanishes to at
    least the sum of the row orders.  So one reduction modulo t^D decides:
    a row vanishing modulo t^D makes the wedge identically zero, and the
    result is flagged degenerate; otherwise every order and leading vector
    below t^D is exact, and the leading vectors span the limit plane.  The
    reduction runs on integers and keeps each row a positive rational
    multiple of the row a reduction over Q would hold, so it reads the same
    orders.  Its last pass has already eliminated the leading vectors, so
    the plane's basis is back-substituted from that echelon: the rref of a
    row space is unique, so it is the rref basis of the leading vectors'
    span.
    """
    polys = [_curve_data(c) for c in (c1, c2, c3)]
    widths = {len(v) for data in polys for v in data}
    if len(widths) != 1:
        raise ValueError("curves must share an ambient dimension")
    if widths.pop() > MAX_AMBIENT:
        raise ValueError(f"ambient dimension capped at {MAX_AMBIENT}")
    degree_bound = sum(len(data) - 1 for data in polys) + 1
    if degree_bound > MAX_PREC:
        raise ValueError(f"truncation order capped at {MAX_PREC}")
    reduced = _reduce_rows(polys, degree_bound)
    if reduced is None:
        return LimitPlaneResult((), (), None, degenerate=True)
    leads, echelon = reduced
    orders = tuple(o for o, _ in leads)
    rows = [v for _, v in echelon]
    _back_substitute(rows, [p for p, _ in echelon])
    return LimitPlaneResult(tuple(map(tuple, rows)), orders, sum(orders))


def _ambient_polynomial(model, data):
    """Exact ambient polynomial data of a polynomial chart curve, given as
    nonempty coefficient vectors of one length."""
    if model.kind == "segre":
        return _segre_polynomial(model, data)
    return _coefficient_vectors(model.phi([_Poly(col) for col in zip(*data)]))


def _segre_polynomial(model, data):
    """_ambient_polynomial on a Segre model, on plain coefficient lists.

    Slot (i_1, ..., i_n) of the chart map multiplies, over the factors m,
    entry i_m of the block (1, x_1, ..., x_{d_m - 1}) of factor m.  So the
    ambient curve is the product of the factors' block curves, each with
    coefficient vector (1, x_1[0], ...) at t^0 and (0, x_1[k], ...) at t^k,
    where vectors multiply by Kronecker products.  Convolving the factors
    first to last makes that product row-major, which is phi's slot order.
    Only the nonzero block vectors are convolved, keyed by their power of
    t; the product's top vector is the Kronecker product of the blocks' top
    vectors, which is nonzero, so no trailing zero vector is left.  On ints
    the sums stay ints; _norm runs only when a Fraction is present.
    """
    if len(data[0]) != model.tangent_dim:
        raise ValueError("tangent vector has wrong length")
    terms = {0: (1,)}
    for b in model._block_slices:
        blk = [(k, (0, *v[b])) for k, v in enumerate(data) if k and any(v[b])]
        blk.insert(0, (0, (1, *data[0][b])))
        prod = {}
        for i, u in terms.items():
            for j, w in blk:
                kron = [x * y for x in u for y in w]
                acc = prod.get(i + j)
                prod[i + j] = kron if acc is None else list(map(add, acc, kron))
        terms = prod
    zero = (0,) * len(terms[0])
    out = [terms.get(k, zero) for k in range(max(terms) + 1)]
    if _has_fraction(chain.from_iterable(data)):
        return [tuple(map(_norm, v)) for v in out]
    return list(map(tuple, out))


def chart_limit_plane(model, curves):
    """Limit plane of three chart curves pushed through the model map.

    Each curve is a sequence of chart coefficient vectors.  A chart curve of
    degree d embeds to degree at most d * base_degree, so the wedge bound of
    limit_plane is checked against the cap before any curve is embedded.
    """
    curves = list(curves)
    if len(curves) != 3:
        raise ValueError("a limit plane needs exactly three curves")
    # ambient_dim > tangent_dim, and the tangent test keeps a huge model from
    # evaluating its closed form (2^(k-1) for a spinor)
    if model.tangent_dim >= MAX_AMBIENT or model.ambient_dim > MAX_AMBIENT:
        raise ValueError(f"ambient dimension capped at {MAX_AMBIENT}")
    polys = [_curve_data(c) for c in curves]
    if sum(len(data) - 1 for data in polys) * model.base_degree + 1 > MAX_PREC:
        raise ValueError(f"truncation order capped at {MAX_PREC}")
    return limit_plane(*(_ambient_polynomial(model, data) for data in polys))


@dataclass(frozen=True)
class LimitAnalysis:
    """A limit plane together with the collision geometry of its curves."""

    plane: LimitPlaneResult
    tag: str                    # "i" | "ii" | "iii" | "iv" | "degenerate"
    support_count: int          # distinct limit points among the three curves
    collision_direction: tuple | None
    distinguished_factor: int | None  # segre models, tag "iv" only; 1-based


def _segre_single_block(model, u):
    """Index (1-based) of the unique factor block supporting u, else None."""
    if model.kind != "segre":
        return None
    hits = [f + 1 for f, b in enumerate(model._block_slices) if any(u[b])]
    return hits[0] if len(hits) == 1 else None


def limit_analysis(model, curves):
    """Classify the limit plane of three colliding chart curves.

    Each curve is a sequence of chart coefficient vectors.  Three distinct
    limit points give tag "i".  Two distinct limit points give "ii", or
    "iv" when the two support points sit on a line of the model (the
    second-order offset along the chord vanishes).  A triple
    collision gives "iii" when the relative direction bends away from the
    tangent space, "iv" when it does not, and "degenerate" when the whole
    plane is tangent at the collision point.
    """
    curves = list(curves)
    if len(curves) != 3:
        raise ValueError("a limit plane needs exactly three curves")
    polys = [_curve_data(c) for c in curves]
    plane = chart_limit_plane(model, polys)
    consts = [tuple(_norm(x) for x in data[0]) for data in polys]
    distinct = []
    for c in consts:
        if c not in distinct:
            distinct.append(c)
    support = len(distinct)
    if plane.degenerate:
        return LimitAnalysis(plane, "degenerate", support, None, None)
    if support == 3:
        return LimitAnalysis(plane, "i", 3, None, None)
    if support == 2:
        counts = {c: consts.count(c) for c in distinct}
        doubled = next(c for c in distinct if counts[c] == 2)
        single = next(c for c in distinct if counts[c] == 1)
        u = tuple(_norm(a - b) for a, b in zip(single, doubled))
        if second_fundamental_vanishes(model, doubled, u):
            return LimitAnalysis(plane, "iv", 2, u, _segre_single_block(model, u))
        return LimitAnalysis(plane, "ii", 2, u, None)
    c = distinct[0]
    frame = affine_tangent_frame(model, c)
    if rank(frame + [list(r) for r in plane.plane]) == len(frame):
        return LimitAnalysis(plane, "degenerate", 1, None, None)
    # relative direction of the collision: lowest-order pairwise difference
    best = None
    zero = (0,) * model.tangent_dim
    for i in range(3):
        for j in range(i + 1, 3):
            diff = [tuple(_norm(a - b) for a, b in zip(x, y)) for x, y in
                    zip_longest(polys[i], polys[j], fillvalue=zero)]
            o = _order(diff)
            if o is not None and (best is None or o < best[0]):
                best = (o, diff[o])
    # some pair differs: three identical curves span a degenerate plane
    u = best[1]
    if second_fundamental_vanishes(model, c, u):
        return LimitAnalysis(plane, "iv", 1, u, _segre_single_block(model, u))
    return LimitAnalysis(plane, "iii", 1, u, None)


# -- random curve families with a prescribed limit type --------------------

@dataclass(frozen=True)
class CurveFamily:
    """Three polynomial chart curves with the limit type they realise."""

    tag: str
    curves: tuple   # three tuples of chart coefficient vectors
    factor: int | None = None


def _rand_block(rng, size):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(size))
        if any(v):
            return v


def _assemble(model, blocks):
    """The tangent vector with the given factor blocks, None a zero block."""
    out = [0] * model.tangent_dim
    for blk, b in zip(blocks, model._block_slices):
        if blk is not None:
            if len(blk) != b.stop - b.start:
                raise ValueError("block has wrong size")
            out[b] = blk
    return tuple(out)


def _mode_frames_independent(model, chart_rows):
    """Each mode's projective frame (1, block) must be a basis."""
    for b in model._block_slices:
        mat = [[int(kind == "point"), *vec[b]] for kind, vec in chart_rows]
        if rank(mat) != len(mat):
            return False
    return True


def secant_curve_family(tag, model=None, rng=None, factor=1):
    """Draw random polynomial curves whose limit plane has the given type.

    Implemented for three-factor segre models with all dims >= 3; the
    genericity conditions that keep sampled plane points concise are
    enforced by redrawing, with exact linear algebra only.
    """
    if model is None:
        model = segre_model((3, 3, 3))
    if model.kind != "segre" or len(model.dims) != 3 or min(model.dims) < 3:
        raise ValueError("curve families need a three-factor segre model with dims >= 3")
    if rng is None:
        rng = random.Random(0)
    slices = model._block_slices
    sizes = [d - 1 for d in model.dims]
    tdim = model.tangent_dim
    zero = (0,) * tdim
    if tag == "i":
        while True:
            pts = [_assemble(model, [_rand_block(rng, s) for s in sizes])
                   for _ in range(3)]
            if len(set(pts)) == 3 and _mode_frames_independent(
                    model, [("point", p) for p in pts]):
                return CurveFamily("i", tuple((p,) for p in pts))
    if tag == "ii":
        while True:
            a = _assemble(model, [_rand_block(rng, s) for s in sizes])
            b = _assemble(model, [_rand_block(rng, s) for s in sizes])
            u1 = _assemble(model, [_rand_block(rng, s) for s in sizes])
            u2 = _assemble(model, [_rand_block(rng, s) for s in sizes])
            d = tuple(x - y for x, y in zip(u2, u1))
            if not all(any(d[sl]) for sl in slices):
                continue
            rows = [("point", a), ("dir", d), ("point", b)]
            if _mode_frames_independent(model, rows):
                return CurveFamily("ii", ((a, u1), (a, u2), (b,)))
    if tag == "iii":
        while True:
            c = _assemble(model, [_rand_block(rng, s) for s in sizes])
            u = _assemble(model, [_rand_block(rng, s) for s in sizes])
            m = _assemble(model, [_rand_block(rng, s) for s in sizes])
            rows = [("point", c), ("dir", u), ("dir", m)]
            if not _mode_frames_independent(model, rows):
                continue
            c2 = tuple(2 * x for x in u)
            m4 = tuple(4 * x for x in m)
            return CurveFamily("iii", ((c,), (c, u, m), (c, c2, m4)))
    if tag == "iv":
        f = factor - 1
        if not 0 <= f < 3:
            raise ValueError("factor must be 1, 2, or 3")
        while True:
            eta = _rand_block(rng, sizes[f])
            v = _assemble(model, [_rand_block(rng, s) for s in sizes])
            wblocks = [None if m == f else _rand_block(rng, sizes[m])
                       for m in range(3)]
            w = _assemble(model, wblocks)
            sigma = rng.choice([1, 2, -1, -2, 3])
            etahat = _assemble(model, [eta if m == f else None for m in range(3)])
            # sampled frames: mode f sees {eta, v_f}; mode g != f sees
            # {v_g + w_g / sigma, w_g}, of the rank of {w_g, v_g}; w is zero
            # in mode f and etahat outside it, so etahat + w holds eta, w_g
            if not _mode_frames_independent(
                    model, [("dir", tuple(map(add, etahat, w))), ("dir", v)]):
                continue
            sig_eta = tuple(sigma * x for x in etahat)
            p = (zero, etahat)
            q = (zero, zero, v)
            r = (sig_eta, w)
            return CurveFamily("iv", (p, q, r), factor=factor)
    raise ValueError(f"unknown curve family tag {tag!r}")


# -- spans of tangent spaces along a factor line ---------------------------

def line_tangent_span(dims, factor):
    """Exact span dimension of affine tangent spaces along a factor line of
    the Segre product with the given factor dims."""
    model = segre_model(tuple(dims))
    if not 1 <= factor <= len(dims):
        raise ValueError("factor out of range")
    if dims[factor - 1] < 2:
        raise ValueError("a factor of dimension 1 has no line")
    rows = []
    for s in (0, 1, 2):
        c = [0] * model.tangent_dim
        c[model._block_slices[factor - 1].start] = s
        rows.extend(affine_tangent_frame(model, c))
    return rank(rows)


# -- fundamental forms and order bounds -------------------------------------

def fundamental_form(model, s, vectors):
    """Polarisation of the degree-s block of the chart map on s vectors.

    Returns {ambient_slot_index: value}; the diagonal reproduces the
    degree-s coefficients of the chart map.
    """
    vectors = [list(v) for v in vectors]
    if s < 1 or len(vectors) != s:
        raise ValueError("need exactly s vectors for the degree-s form")
    n = model.tangent_dim
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors have wrong length")
    if s > model.base_degree:
        return {}
    total = {}
    for mask in range(1, 1 << s):
        w = [0] * n
        bits = 0
        for i in range(s):
            if mask >> i & 1:
                bits += 1
                for j in range(n):
                    w[j] += vectors[i][j]
        sign = 1 if (s - bits) % 2 == 0 else -1
        for slot, val in model.fundamental_form_diag(s, w).items():
            total[slot] = total.get(slot, 0) + sign * val
    scale = Fraction(1, math.factorial(s))
    out = {}
    for slot, val in total.items():
        val = _norm(scale * val)
        if val:
            out[slot] = val
    return out


def fubini_series(model, tangent_series, s):
    """Series value of the degree-s fundamental form along t -> v(t)^s.

    tangent_series is the VectorSeries v(t) in the chart coordinates.  By the
    grading of the chart map this is its degree-s ambient block
    evaluated along the curve.
    """
    if s < 2:
        raise ValueError("fundamental forms start at degree 2")
    amb = parameterize(model, tangent_series)
    block = set(model.slot_block(s))
    zero = ScalarSeries.constant(0, amb.prec)
    return VectorSeries(
        amb.parts[i] if i in block else zero for i in range(model.ambient_dim)
    )


def prolongation_check(model, f1, f2):
    """Vanishing of the next fundamental form on a product of arguments.

    f1 is a sequence of s1 >= 2 tangent vectors on which the degree-s1 form
    must already vanish (ValueError otherwise); f2 is a nonempty sequence of
    further tangent vectors.  Returns whether the degree-(s1+s2) form
    vanishes on the combined argument.
    """
    f1 = [list(v) for v in f1]
    f2 = [list(v) for v in f2]
    if len(f1) < 2:
        raise ValueError("the first argument needs at least two vectors")
    if not f2:
        raise ValueError("the second argument needs at least one vector")
    if fundamental_form(model, len(f1), f1):
        raise ValueError("the first argument must annihilate its own form degree")
    return not fundamental_form(model, len(f1) + len(f2), f1 + f2)


# -- colliding-curve configurations ------------------------------------------

@dataclass(frozen=True)
class LimitConfig:
    """Three colliding curves in normalized form on a model chart.

    The first point is frozen at the base point, the second moves along
    t^k * v(t), and the third along lam(t) * t^k * v(t) + t^l * w(t), with
    0 <= k <= l and v(0), w(0) nonzero (so that k and l are maximal).
    """

    model: object
    k: int
    l: int
    v: VectorSeries
    w: VectorSeries
    lam: ScalarSeries

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.l, int)):
            raise ValueError("k and l must be integers")
        if not 0 <= self.k <= self.l:
            raise ValueError("need 0 <= k <= l")
        for name, series in (("v", self.v), ("w", self.w)):
            if not isinstance(series, VectorSeries):
                raise ValueError(f"{name} must be a VectorSeries")
            if len(series) != self.model.tangent_dim:
                raise ValueError(f"{name} has wrong length for the model chart")
            if series.order() != 0:
                raise ValueError(f"{name} must be nonzero at t=0 to keep k and l maximal")
        if not isinstance(self.lam, ScalarSeries):
            raise ValueError("lam must be a ScalarSeries")

    @property
    def m(self):
        """Valuation of the scalar series lam, or None when lam is zero."""
        return self.lam.order()


def limit_config_curves(cfg):
    """The three chart curves of a colliding configuration.

    Returns three lists of chart coefficient vectors (index i for t^i):
    0, t^k * v and lam * t^k * v + t^l * w, with v, w and lam read as the
    polynomials their tracked coefficients spell.
    """
    v = cfg.v.polynomial_coefficients()
    w = cfg.w.polynomial_coefficients()
    lam = utrim(list(cfg.lam.coeffs))
    zero = (0,) * len(v[0])
    third = [zero] * max(cfg.k + len(v) + len(lam) - 1, cfg.l + len(w))
    for a, c in enumerate(lam):
        if c:
            for k, u in enumerate(v, cfg.k + a):
                third[k] = [x + c * y for x, y in zip(third[k], u)]
    for k, u in enumerate(w, cfg.l):
        third[k] = [x + y for x, y in zip(third[k], u)]
    if _has_fraction(chain(lam, *v, *w)):
        third = [tuple(map(_norm, u)) for u in third]
    else:
        third = list(map(tuple, third))
    return [zero], [zero] * cfg.k + v, _trimmed(third)


def limit_config_plane(cfg):
    """Limit plane of the configuration's three embedded curves."""
    return chart_limit_plane(cfg.model, limit_config_curves(cfg))


def limit_type(cfg):
    """Type tag of a colliding configuration: "i", "ii", or coarse "iii-iv".

    Decision tree on (k, l, lam(0), II(v(0)^2)): l = 0 keeps three distinct
    limit points; a collision of order k >= 1, or a second fundamental form
    vanishing on the collision direction, needs the derivative cases; at
    k = 0 the scalar lam(0) decides whether the third point collides with
    the base point (lam(0) = 0), with the second point (lam(0) = 1), or
    stays distinct.
    """
    if cfg.l == 0:
        return "i"
    if cfg.k >= 1:
        return "iii-iv"
    if not cfg.model.fundamental_form_diag(2, cfg.v.coeff_vector(0)):
        return "iii-iv"
    lam0 = cfg.lam.coeff(0)
    if lam0 != 0 and lam0 != 1:
        return "i"
    return "ii"
