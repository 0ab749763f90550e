"""Independent rank verification by search and certificate.

Three oracles: an exhaustive finite-field search for the exact rank of a
small tensor, explicit rational decompositions certifying upper bounds, and
a bounded-degree ideal-membership solver producing multiplier certificates
for lower-bound arguments.  Everything is exact.

The finite-field search shares its set-up with the structural classifier:
the tensor's residues mod q are cut to a concise core by
``tensor.concise_core`` over GF(q), which reads each mode's kept slices
from one ``_linalg.gf_pivots`` call, an echelon over GF(q) of the slices
packed into ints.
The search is its own, on vectors packed as the ``_linalg`` module
docstring describes, with its carry rule (``_gf_add``) written out in the
hot loops.  It first decides whether the rank is the
dimension of the slice span S, by whether the rank-one points inside S
span S, looking S's projective points up in a set of the rank-one points
cached per core dims and field.  Only when they do not does it project
the rank-one candidates to the quotient by S and walk the subspaces of
the quotient that candidates span, each once, in a fixed order.  Each
candidate's projection is read from a table built once per head of
candidates (its vectors in every mode but the last), and the last layer
of the walk visits only the candidates that neighbour masks show can
grow the span.
``tests/colex_reference.py`` keeps the older colex search over candidate
subsets to check the search against, and ``tests/projection_reference.py``
the projection of one candidate at a time.

The Macaulay solver inserts each column, a monomial shift of a generator,
into an ``_linalg.Echelon`` as it is built, and reads the target's
coordinates over the columns from the echelon's reduction steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import lcm
from operator import add

from ._linalg import (Echelon, _carries, _gf_add, _insert, _multiples, _norm,
                      _pack, from_rational, rref)
from .normal_forms import (_ORBIT_TERMS, ORBIT_IDS, _normal_form_terms,
                           orbit_representative, sigma2_point, sigma3_point)
from .polytools import monomial, padd, pis_zero, pmul, psub
from .tensor import (Tensor, concise_core, flattening, multilinear_rank,
                     squeeze, zero_tensor)

_PRIMES = (2, 3, 5)


class SearchSpaceError(ValueError):
    """The exhaustive search would exceed its candidate budget."""


# -- finite-field plumbing ---------------------------------------------------

def _projective_vectors(d, q):
    """All length-d vectors over GF(q) with first nonzero coordinate 1."""
    out = []
    for lead in range(d):
        for tail in product(range(q), repeat=d - 1 - lead):
            out.append((0,) * lead + (1,) + tail)
    return out


@lru_cache(maxsize=32)
def _rank_one_candidates(dims, q):
    """Outer products of projective vectors per mode, sparsest first.

    Cached per (dims, q), so it returns a tuple that callers cannot mutate.
    """
    grids = [_projective_vectors(d, q) for d in dims]
    cands = []
    for vecs in product(*grids):
        entry = [1]
        for v in vecs:
            entry = [(a * b) % q for a in entry for b in v]
        cands.append(tuple(entry))
    cands.sort(key=lambda e: (sum(1 for x in e if x), e))
    return tuple(cands)


@lru_cache(maxsize=32)
def _candidate_positions(dims, q):
    """Where each candidate's lift and its multiples sit in _lift_tables.

    A candidate is a (x) b, with its head a the outer product of its
    projective vectors in every mode but the last, and b its vector in the
    last mode.  Returns the distinct heads, and for each candidate of
    _rank_one_candidates(dims, q), in that order, the positions of the
    lifts of c * (a (x) b) = a (x) cb for c = 1, ..., q - 1.
    """
    last = dims[-1]
    size = q ** last
    heads, index = {}, []
    for cand in _rank_one_candidates(dims, q):
        rows = [cand[i:i + last] for i in range(0, len(cand), last)]
        # the first nonzero row is b, and the column at b's leading 1 is a
        b = next(row for row in rows if any(row))
        lead = next(j for j, x in enumerate(b) if x)
        h = heads.setdefault(tuple(row[lead] for row in rows), len(heads))
        index.append(tuple(
            h * size + sum(c * x % q * q ** j for j, x in enumerate(b))
            for c in range(1, q)))
    return tuple(heads), tuple(index)


@dataclass(frozen=True)
class GreaterThan:
    """Search verdict: the rank exceeds the stated bound."""

    bound: int


def _prepare_span_search(t, q):
    """Reduce to a concise core; returns (decided rank, None) or (None, ctx)."""
    t = Tensor(t.dims, tuple(from_rational(x, q) for x in t.entries))
    if t.is_zero():
        return 0, None
    core, _ = squeeze(concise_core(t, q).core)
    dims = core.dims
    if len(dims) == 1:
        return 1, None
    if len(dims) == 2:
        return dims[0], None  # a concise matrix is square and invertible
    if any(d > 3 for d in dims):
        raise SearchSpaceError(
            f"concise core dims {dims} too large for exhaustive search")
    # slice along the largest mode so candidates range over the smaller ones
    mode0 = max(range(len(dims)), key=lambda m: dims[m])
    rest = dims[:mode0] + dims[mode0 + 1:]
    n_cands = 1
    for d in rest:
        n_cands *= (q ** d - 1) // (q - 1)
    if n_cands > 2500:
        raise SearchSpaceError(
            f"{n_cands} rank-one candidates exceed the search budget")
    slice_rows = flattening(core, mode0)
    return None, (slice_rows, rest, max(dims))


# -- quotient-space search ----------------------------------------------------

def _grow(space, e, q, over, top):
    """Span of a subspace and the vector e.

    A subspace is (mask, members): its packed members, and a bitmask with
    bit x set for each member x.
    """
    mask, members = space
    if mask >> e & 1:
        return space
    grown = tuple(_gf_add(m, c, q, over, top)
                  for c in _multiples(e, q, over, top) for m in members)
    for x in grown:
        mask |= 1 << x
    return mask, grown


_ZERO_SPACE = (1, (0,))


@lru_cache(maxsize=32)
def _rank_one_points(dims, q):
    """Every nonzero multiple of the candidates _rank_one_candidates(dims,
    q), packed: the rank-one points of F_q^N."""
    cands = _rank_one_candidates(dims, q)
    over, top = _carries(len(cands[0]), q)
    points = set()
    for cand in cands:
        points.update(_multiples(_pack(cand), q, over, top)[1:])
    return frozenset(points)


def _rank_is_dim_s(slice_rows, dims, q):
    """Whether the rank-one points inside S, the span of the independent
    slice_rows, span S, i.e. whether the rank is dim S.

    The rank-one points are closed under scaling, so only the projective
    points of S are looked up in _rank_one_points(dims, q): the points
    s_i + y, y in the span of the slices s_i+1, ..., s_k after s_i, each
    with its coordinates over slice_rows packed in k fields.  The
    coordinates of the hits go through _linalg._insert into one echelon;
    the span is complete when it holds k rows.
    """
    k = len(slice_rows)
    over, top = _carries(len(slice_rows[0]), q)
    rank_one = _rank_one_points(dims, q)
    hits = []
    later, later_coords = [0], [0]  # the span of the slices after s_i
    for i in reversed(range(k)):
        row = _pack(slice_rows[i])
        unit = 1 << 4 * i
        for y, c in zip(later, later_coords):
            s = row + y
            if s - (((s + over) & top) >> 3) * q in rank_one:
                hits.append(unit + c)
        if i:
            later = [s - (((s + over) & top) >> 3) * q
                     for m in _multiples(row, q, over, top)
                     for s in map(m.__add__, later)]
            later_coords = [c * unit + y for c in range(q)
                            for y in later_coords]
    over, top = _carries(k, q)
    echelon = {}
    for c in hits:
        if _insert(echelon, c, q, over, top) and len(echelon) == k:
            return True
    return False


@dataclass(frozen=True)
class _Quotient:
    """Rank-one candidates projected to F^N/S, S the span of the slices.

    k is dim S.  A candidate is packed as its lift: its coordinates in S
    (its entries in the pivot columns of the slices' rref) in the low k
    fields, and its image in F^N/S (its free columns after subtracting
    those multiples of the rref rows) above them.  Each distinct projective
    image has an index p, in order of first appearance, and gens[p] is the
    lift of the first candidate with that image.  where maps the image part
    of every nonzero multiple c * gens[p] to (p, S part of c * gens[p]).
    extra[p] is a basis of the S parts of the differences between the other
    candidates with image p and matching multiples of gens[p]; root is the
    span, as (bitmask, members), of the candidates inside S.  over and top
    are the carry masks of _gf_add for the packed width.
    """

    q: int
    k: int
    over: int
    top: int
    gens: tuple
    where: dict
    extra: tuple
    root: tuple


def _lift_tables(heads, units, last, q, over, top):
    """The lifts of a (x) b for every head a and every b in F_q^last.

    Concatenated per head, in the order of heads; b sits at offset
    sum_j b_j q^j.  The lift is linear, so a head's table is grown one
    coordinate j at a time: its entries so far, plus c times the lift of
    a (x) e_j for c = 1, ..., q - 1, one packed addition each.
    """
    out = []
    for a in heads:
        table = [0]
        for j in range(last):
            e = 0
            for i, x in enumerate(a):
                if x:
                    s = e + units[i * last + j][x]
                    e = s - (((s + over) & top) >> 3) * q
            layer = table
            for _ in range(1, q):
                layer = [s - (((s + over) & top) >> 3) * q
                         for s in map(e.__add__, layer)]
                table += layer
        out += table
    return out


def _project_candidates(slice_rows, dims, q):
    """The _Quotient of the candidates _rank_one_candidates(dims, q) by the
    span of slice_rows; each lift is read from _lift_tables."""
    basis, pivots = rref(slice_rows, q)
    k = len(pivots)  # the slices of a concise core are independent
    n = len(basis[0])
    free = [c for c in range(n) if c not in pivots]
    shift = 4 * k
    low = (1 << shift) - 1
    over, top = _carries(n, q)
    qs = (top - over) & low  # q in every field of the S part: qs - x = -x
    # the lift of a unit vector: a pivot column's is its S coordinate and
    # minus its rref row in the free columns, a free column's is its image
    units = [None] * n
    for i, c in enumerate(pivots):
        image = _pack([-basis[i][f] % q for f in free])
        units[c] = _multiples(1 << 4 * i | image << shift, q, over, top)
    for i, c in enumerate(free):
        units[c] = _multiples(1 << 4 * (k + i), q, over, top)
    heads, index = _candidate_positions(dims, q)
    lifts = _lift_tables(heads, units, dims[-1], q, over, top)
    gens, where, spans, extra = [], {}, {}, {}
    root = _ZERO_SPACE
    for pos in index:
        v = lifts[pos[0]]
        image = v >> shift
        hit = where.get(image)
        if hit is not None:
            p, part = hit
            s = (v & low) + qs - part
            diff = s - (((s + over) & top) >> 3) * q
            span = spans.get(p, _ZERO_SPACE)
            if not span[0] >> diff & 1:
                spans[p] = _grow(span, diff, q, over, top)
                extra.setdefault(p, []).append(diff)
        elif image:
            g = len(gens)
            for i in pos:
                m = lifts[i]
                where[m >> shift] = (g, m & low)
            gens.append(v)
        else:
            root = _grow(root, v, q, over, top)
    return _Quotient(q, k, over, top, tuple(gens), where,
                     tuple(tuple(extra.get(p, ())) for p in range(len(gens))),
                     root)


def _set_bytes(mask):
    """The indices of the nonzero bytes of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1 >> 3
        mask ^= low


# generators per neighbour mask, and last-layer generators a node visits
# before it builds any: a node that succeeds at one of its first generators
# builds no mask, or those of one window, not of all generators
_WINDOW = 64
_FIRST = 4


def _quotient_search(qt, j, masks=None):
    """Whether some j-dimensional U in F^N/S, j >= 1, has a preimage W
    spanned by the candidates inside W, i.e. whether the rank is at most
    dim S + j.  (j = 0 is _rank_is_dim_s, which needs no projection.)

    The candidates in W span S + U exactly when they span all of S, and
    their span meets S in the span of: the candidates in S, the differences
    of candidates sharing an image, and, for each image in U outside the
    generators, its lift minus the matching combination of generator lifts.
    Each U spanned by images is visited once, through its greedy basis:
    generator g_t is the smallest image index among the points of
    span(g_1..g_t) outside span(g_1..g_t-1).

    A last generator g adds to that span only through extra[g] or through
    a point g + y, y a nonzero point of span(g_1..g_j-1), that is a
    candidate image; any other g leaves it as it was.  So below a node whose
    span of S parts is not yet full, the last layer visits only the g with
    extra[g] nonempty or with byte g set in the neighbour mask of some such
    y, whose byte g is 1 when image(g) + image(y) is a candidate image.
    A node visits its first _FIRST generators as they come, then builds
    masks for windows of _WINDOW generators as it reaches them.  A byte 2
    marks a g that some g + y shows is not the greedy last generator,
    which the layer skips too.  The masks of the multiples c * g_t of one
    generator, keyed (g_t, c, window start), and of the g with extra S
    parts, keyed by the window start, are kept in masks, so the searches
    for several j on one quotient can share them; those of the other
    points are built per node.  Below a node whose span is already full
    every g is visited, as without masks.
    """
    q, over, top, gens, where, extra = (
        qt.q, qt.over, qt.top, qt.gens, qt.where, qt.extra)
    full = q ** qt.k
    shift = 4 * qt.k
    low = (1 << shift) - 1
    qs = (top - over) & low
    m = len(gens)
    if masks is None:
        masks = {}
    # point i of span(g_1..g_j-1) has base-q digit t the coefficient of
    # g_t+1: a lone nonzero digit is a multiple of one generator
    lone = {c * q ** t: (t, c) for t in range(j - 1) for c in range(1, q)}
    mixed = [i for i in range(1, q ** (j - 1)) if i not in lone]

    def neighbours(y, lo, a):
        """The byte mask, byte g - a for g, of the g >= lo in the window
        from a: 1 where g + y is a candidate image of generator p >= g, 2
        where p < g, so that g is not the greedy last generator."""
        start = max(a, lo)
        hits = map(where.get, [
            s - (((s + over) & top) >> 3) * q >> shift
            for s in map(y.__add__, gens[start:a + _WINDOW])])
        mask = int.from_bytes(bytes([
            0 if hit is None else 1 + (hit[0] < g)
            for g, hit in enumerate(hits, start)]), "little")
        return mask << 8 * (start - a)

    ones = ((1 << 8 * _WINDOW) - 1) // 255

    def last_layer(span, lo, path):
        yield from range(lo, min(lo + _FIRST, m))
        lo += _FIRST
        for a in range(lo - lo % _WINDOW, m, _WINDOW):
            cand = masks.get(a)
            if cand is None:  # the g in the window with extra S parts
                cand = masks[a] = int.from_bytes(
                    bytes(map(bool, extra[a:a + _WINDOW])), "little")
            for i, (t, c) in lone.items():
                # a node below g_t has lo > g_t, so g > g_t is all it reads
                key = (path[t], c, a)
                mask = masks.get(key)
                if mask is None:
                    mask = masks[key] = neighbours(span[i], path[t] + 1, a)
                cand |= mask
            for i in mixed:
                cand |= neighbours(span[i], lo, a)
            cand &= ~(cand >> 1) & ones
            if a < lo:
                cand = cand >> 8 * (lo - a) << 8 * (lo - a)
            for g in _set_bytes(cand):
                yield a + g

    def rec(span, lo, depth, space, path):
        if depth < j or len(space[1]) == full:
            todo = range(lo, m - j + depth)
        else:
            todo = last_layer(span, lo, path)
        for g in todo:
            base = gens[g]
            sp = space
            # one representative g + y of each point new in this layer
            for y in span:
                s = base + y
                v = s - (((s + over) & top) >> 3) * q
                hit = where.get(v >> shift)
                if hit is None:
                    continue
                p, part = hit
                if p < g:
                    break  # U is reached through its own greedy basis
                for d in extra[p]:
                    sp = _grow(sp, d, q, over, top)
                s = (v & low) + qs - part
                e = s - (((s + over) & top) >> 3) * q
                if not sp[0] >> e & 1:
                    sp = _grow(sp, e, q, over, top)
            else:
                if depth == j:
                    if len(sp[1]) == full:
                        return True
                    continue
                wider = [_gf_add(y, c, q, over, top)
                         for c in _multiples(base, q, over, top) for y in span]
                if rec(wider, g + 1, depth + 1, sp, path + (g,)):
                    return True
        return False

    return rec([0], 0, 1, qt.root, ())


def rank_over_field(t, q, r_max=6):
    """Exact rank of a small tensor over GF(q) by exhaustive quotient search.

    The rank of T is the smallest r such that some r-dimensional W holding
    every mode-0 slice is spanned by the rank-one tensors (in the other
    modes) inside it.  W contains the slice span S.  r = dim S is decided
    first, with no projection: by whether the rank-one points inside S
    span S (_rank_is_dim_s).  Otherwise the candidates are projected to
    F^N/S, and the search runs over the subspaces U = W/S of F^N/S of
    dimension r - dim S >= 1 that are spanned by images of rank-one
    candidates, each visited once; candidates are outer products of
    projective vectors, ordered sparsest first.  Returns GreaterThan(r_max)
    when no r <= r_max works.
    """
    # exact type tests: 2.0 == 2 and True == 1 would pass a comparison
    if type(q) is not int or q not in _PRIMES:
        raise ValueError(f"search primes are {_PRIMES}, not {q!r}")
    if type(r_max) is not int or not 1 <= r_max <= 6:
        raise ValueError(
            f"r_max must be an integer between 1 and 6, not {r_max!r}")
    decided, ctx = _prepare_span_search(t, q)
    if ctx is None:
        return decided if decided <= r_max else GreaterThan(r_max)
    slice_rows, rest, low = ctx
    if low > r_max:
        return GreaterThan(r_max)
    if _rank_is_dim_s(slice_rows, rest, q):
        return low
    qt = _project_candidates(slice_rows, rest, q)
    masks = {}
    for r in range(low + 1, r_max + 1):
        if _quotient_search(qt, r - low, masks):
            return r
    return GreaterThan(r_max)


# -- explicit rational decompositions ----------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Sum of scaled rank-one terms reproducing a target tensor exactly."""

    dims: tuple
    terms: tuple  # (coefficient, per-mode vectors) pairs

    def tensor(self):
        """The sum of the terms.  It is taken on den times each coefficient,
        den the lcm of the coefficients' denominators, so integer vectors
        add up on integers, and divided by den once at the end."""
        acc = list(zero_tensor(self.dims).entries)
        den = 1
        for coeff, _ in self.terms:
            if type(coeff) is not int:
                den = lcm(den, coeff.denominator)
        for coeff, vectors in self.terms:
            if tuple(map(len, vectors)) != self.dims:
                raise ValueError("dimension mismatch")
            term = [coeff if den == 1 else coeff.numerator * (den // coeff.denominator)]
            for v in vectors:
                term = [a * x for a in term for x in v]
            acc = list(map(add, acc, term))
        if den == 1:
            return Tensor(self.dims, tuple(map(_norm, acc)))
        return Tensor(self.dims, tuple(Fraction(x, den) if x % den else x // den
                                       for x in acc))

    def verify(self, target):
        return self.dims == target.dims and self.tensor() == target

    def __len__(self):
        return len(self.terms)


def _basis_decomposition(dims, idxs):
    """One unit-coefficient term per basis multi-index."""
    return Decomposition(dims, tuple(
        (1, tuple(tuple(int(j == i) for j in range(d))
                  for d, i in zip(dims, idx)))
        for idx in idxs))


_HALF = Fraction(1, 2)

# five terms for the triple-collision orbit: split off one corner point, and
# interpolate the remaining multiplication-by-a-line structure at 0, 1, -1
_OSCULATING_TERMS = (
    (1, ((1, 0, 0), (-1, 0, 1), (1, 0, 0))),
    (_HALF, ((1, 1, 0), (1, 1, 0), (1, 1, 1))),
    (_HALF, ((1, -1, 0), (1, -1, 0), (1, -1, 1))),
    (-1, ((0, 1, 0), (0, 1, 0), (0, 0, 1))),
    (1, ((0, 0, 1), (1, 0, 0), (1, 0, 0))),
)


def _orbit_decomposition(orbit_id):
    if orbit_id == 37:
        return Decomposition((3, 3, 3), _OSCULATING_TERMS)
    return _basis_decomposition((3, 3, 3), _ORBIT_TERMS[orbit_id])


def rank_upper_bound(t):
    """Explicit rational decomposition of a tensor of known provenance.

    Recognizes the zero tensor, rank-one tensors, the six concise orbit
    representatives at dims (3,3,3), and the tangent-type and small-secant
    normal forms at any matching dims; raises on anything else.  The term
    count realizes the best constructive upper bound the toolkit knows.
    """
    dims = t.dims
    if t.is_zero():
        return Decomposition(dims, ())
    if all(r <= 1 for r in multilinear_rank(t)):
        anchor = next(idx for idx in product(*map(range, dims)) if t[idx])
        vectors = []
        for mode, d in enumerate(dims):
            fiber = []
            for j in range(d):
                idx = list(anchor)
                idx[mode] = j
                fiber.append(t[tuple(idx)])
            vectors.append(tuple(fiber))
        a = Fraction(t[anchor])
        coeff = _norm(1 / a ** (len(dims) - 1))
        # every flattening has rank <= 1, so t is t[anchor]^(1-n) times the
        # outer product of its anchor fibers
        return Decomposition(dims, ((coeff, tuple(vectors)),))
    if dims == (3, 3, 3):
        for orbit_id in ORBIT_IDS:
            if t == orbit_representative(orbit_id):
                return _orbit_decomposition(orbit_id)
    n = len(dims)
    eligible = [j for j in range(1, n + 1) if dims[j - 1] >= 2]
    for size in range(1, len(eligible) + 1):
        for J in combinations(eligible, size):
            if t == sigma2_point(n, set(J), dims):
                return _basis_decomposition(
                    dims, _normal_form_terms("sigma2", n, J=J))
    if n >= 3 and all(d >= 3 for d in dims):
        forms = [(kind, 1) for kind in ("i", "ii", "iii")]
        forms += [("iv", factor) for factor in range(1, n + 1)]
        for kind, factor in forms:
            if t == sigma3_point(kind, n, dims, factor):
                return _basis_decomposition(
                    dims, _normal_form_terms(kind, n, factor=factor))
    raise ValueError("unknown provenance: no decomposition recipe matches")


# -- bounded-degree ideal membership -----------------------------------------

@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a bounded-degree ideal-membership search.

    When found, multipliers[i] is the polynomial coefficient of the i-th
    generator in an exact expression of the target; when not found,
    bound_limited records that only the stated multiplier degree was tried.
    """

    found: bool
    bound_limited: bool
    bound: int
    multipliers: tuple | None = None

    def __bool__(self):
        return self.found


def _homogeneous_degree(poly, graded_indices):
    if pis_zero(poly):
        return None
    degs = {sum(e[i] for i in graded_indices) for e in poly}
    if len(degs) != 1:
        raise ValueError("polynomials must be homogeneous in the graded variables")
    return degs.pop()


def _exact_degree_monomials(indices, degree, nvars):
    """Sorted exponent tuples of the degree-`degree` monomials in the
    variables `indices` (distinct) out of nvars."""
    out = []
    for combo in combinations_with_replacement(indices, degree):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return sorted(out)


def _bounded_monomials(indices, bound, nvars):
    out = []
    for d in range(bound + 1):
        out.extend(_exact_degree_monomials(indices, d, nvars))
    return out


def macaulay_membership(target, generators, coefficient_degree_bound,
                        graded_indices=(0, 1, 2, 3)):
    """Decide target = sum h_i * generators[i] with bounded multipliers.

    Polynomials are exponent-tuple dictionaries over one shared variable
    list; variables listed in graded_indices carry degree one and all others
    are degree-zero parameters.  Multipliers are searched with parameter
    degree at most the bound and graded degree matching the homogeneous
    difference; the decision is exact linear algebra on the coefficient
    matrix, and a found certificate is re-substituted before returning.
    Each column is a monomial shift of a generator.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    # exact type tests: True == 1 and 2.0 == 2 would pass a comparison
    bound = coefficient_degree_bound
    if type(bound) is not int or bound < 0:
        raise ValueError("the multiplier degree bound must be a nonnegative "
                         f"integer, not {bound!r}")
    polys = (target, *generators)
    nvars = next((len(e) for p in polys for e in p), None)
    if any(len(e) != nvars for p in polys for e in p):
        raise ValueError("polynomials must share one variable list")
    if any(type(i) is not int or nvars is not None and not 0 <= i < nvars
           for i in graded_indices):
        raise ValueError(f"graded indices must be variable indices below "
                         f"{nvars}, not {graded_indices!r}")
    if pis_zero(target):
        return MembershipCertificate(True, False, bound,
                                     tuple({} for _ in generators))
    graded = sorted(set(graded_indices))
    params = [i for i in range(nvars) if i not in graded]
    target_deg = _homogeneous_degree(target, graded)
    gen_degs = [_homogeneous_degree(g, graded) for g in generators]

    param_monos = _bounded_monomials(params, bound, nvars)
    # each column, the generator times a multiplier monomial, goes into the
    # echelon as it is built, its monomials numbered as they first appear
    slots = {}
    ech = Echelon()
    meta = []   # (generator index, multiplier exponent tuple) per column
    for gi, (g, gd) in enumerate(zip(generators, gen_degs)):
        if gd is None or gd > target_deg:
            continue
        graded_monos = _exact_degree_monomials(graded, target_deg - gd, nvars)
        for pm in param_monos:
            for gm in graded_monos:
                expo = tuple(map(add, pm, gm))
                ech.add({slots.setdefault(tuple(map(add, e, expo)),
                                          len(slots)): c
                         for e, c in g.items()})
                meta.append((gi, expo))
    # a target monomial in no column puts the target outside their span
    coords = (ech.coords_in({slots[mono]: c for mono, c in target.items()})
              if all(mono in slots for mono in target) else None)
    if coords is None:
        return MembershipCertificate(False, True, bound)
    multipliers = [dict() for _ in generators]
    for (gi, expo), c in zip(meta, coords):
        if c:
            multipliers[gi] = padd(multipliers[gi], monomial(expo, c))
    total = {}
    for h, g in zip(multipliers, generators):
        total = padd(total, pmul(h, g))
    if not pis_zero(psub(total, target)):
        raise AssertionError("membership certificate failed re-substitution")
    return MembershipCertificate(True, False, bound, tuple(multipliers))


# -- the perturbed symmetric pencil and its minor ideal ------------------------

# variable order: s, t, u, x carry degree one; f1..f3, g1..g3 are parameters
PENCIL_VARS = ("s", "t", "u", "x", "f1", "f2", "f3", "g1", "g2", "g3")


def _pmono(*indices):
    e = [0] * len(PENCIL_VARS)
    for i in indices:
        e[i] += 1
    return monomial(tuple(e))


def perturbed_pencil_matrix():
    """Symmetric matrix pencil of a triple-collision slice space plus a
    rank-one perturbation x * f g^T with parameter vectors f, g."""
    s, t, u, x = 0, 1, 2, 3
    f = (4, 5, 6)
    g = (7, 8, 9)
    base = ((t, s, u), (s, None, None), (u, None, None))
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            p = {}
            if base[i][j] is not None:
                p = padd(p, _pmono(base[i][j]))
            p = padd(p, _pmono(x, f[i], g[j]))
            row.append(p)
        rows.append(tuple(row))
    return tuple(rows)


def perturbed_pencil_minors():
    """All nine 2x2 minors of the perturbed pencil, keyed by row/column pairs."""
    a = perturbed_pencil_matrix()
    minors = {}
    for rows in combinations(range(3), 2):
        for cols in combinations(range(3), 2):
            i, j = rows
            k, l = cols
            m = psub(pmul(a[i][k], a[j][l]), pmul(a[i][l], a[j][k]))
            minors[(rows, cols)] = m
    return minors


def perturbed_pencil_targets():
    """The two squared linear forms certified to lie in the minor ideal:
    (s*f3 - u*f2)**2 and its transpose twin (s*g3 - u*g2)**2."""
    s, u = 0, 2
    out = []
    for a3, a2 in ((6, 5), (9, 8)):
        lin = psub(_pmono(s, a3), _pmono(u, a2))
        out.append(pmul(lin, lin))
    return tuple(out)
