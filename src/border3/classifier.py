"""Classification of tensors of border rank at most three.

classify() decides the border-rank class {0, 1, 2, 3, greater_than_3} exactly
where theory permits and returns "unknown" (never a guess) elsewhere, along
with the rank, limit type, orbit id (3x3x3 catalog), distinguished factor and
human-readable witnesses.  A tensor whose squeezed concise core has at most
three modes is always decided: a concise 3x3x3 core by Strassen's whole
degree-4 module and then its slice-cubic line patterns, which name its
orbit; "unknown" is left only for cores of four or more modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._linalg import _norm, inverse, mat_mul, pivot_columns, rank, rref, transpose
from .equations import LinePattern, _adjugate, _block, _cubic_coefficients, _line_pattern
from .normal_forms import ORBIT_INFO
from .tensor import (
    Tensor, _gather, concise_core, flattening, grouped_flattening, pivot_set,
    restrict, slice_matrices, squeeze,
)

GREATER_THAN_3 = "greater_than_3"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClassificationReport:
    dims: tuple
    border_rank_class: object          # 0..3, GREATER_THAN_3 or UNKNOWN
    rank: object = None                # int when determined
    limit_type: str = None             # "i" | "ii" | "iii" | "iv"
    orbit_id: int = None               # 34..39 for concise 3-way cores
    distinguished_factor: int = None   # 1-based factor for type iv
    sigma2_support: tuple = None       # 1-based factors carrying the tangent
    core_dims: tuple = None            # concise core dimension per mode
    subspace_label: tuple = None       # set when class 3 came from a subspace argument
    witnesses: tuple = ()

    def as_dict(self):
        return {
            "dims": list(self.dims),
            "border_rank_class": self.border_rank_class,
            "rank": self.rank,
            "limit_type": self.limit_type,
            "orbit_id": self.orbit_id,
            "distinguished_factor": self.distinguished_factor,
            "sigma2_support": list(self.sigma2_support) if self.sigma2_support else None,
            "core_dims": list(self.core_dims) if self.core_dims else None,
            "subspace_label": list(self.subspace_label) if self.subspace_label else None,
            "witnesses": list(self.witnesses),
        }

    @property
    def is_definite(self):
        return self.border_rank_class != UNKNOWN


# ---- stabilizer and orbit dimensions ----

def _stabilizer_matrix(t):
    """Rows: one linear equation per entry of Gamma.T; columns: entries of Gamma.

    The column of the entry E_ab of a gl(d_m) summand is the tensor E_ab . T:
    slice b of T along mode m, moved to slice a.
    """
    cols = []
    for m, d in enumerate(t.dims):
        slices = flattening(t, m)
        pos = _gather(t.dims, (m, *(x for x in range(t.order) if x != m)))
        n = len(slices[0])
        for a in range(d):
            target = pos[a * n:(a + 1) * n]
            for b in range(d):
                col = [0] * len(t.entries)
                for p, v in zip(target, slices[b]):
                    col[p] = v
                cols.append(col)
    # forward elimination of this matrix takes about 0.8 of the time of its
    # transpose on GL-moved 3x3x3 orbit points
    return transpose(cols)


def stabilizer_dimension(t):
    """dim of {Gamma in gl(d_1) + ... + gl(d_n) : Gamma . T = 0} (Leibniz action)."""
    return sum(d * d for d in t.dims) - rank(_stabilizer_matrix(t))


def orbit_dimension(t, stabilizer_dim=None):
    """Dimension of the projective GL-orbit of [T]: the sum of d_m^2, less the
    stabilizer dimension (computed unless given), less 1 for scaling."""
    if t.is_zero():
        raise ValueError("the zero tensor has no projective orbit")
    if stabilizer_dim is None:
        stabilizer_dim = stabilizer_dimension(t)
    return sum(d * d for d in t.dims) - stabilizer_dim - 1


# ---- concise 3x3x3 decisions ----

def _orbit_from_patterns(pats):
    """The catalog orbit 34..39 of a concise 3x3x3 core in sigma_3 from the
    line patterns of its three slice cubics.  By the paper's normal forms
    every such core lies in one of these orbits, whose patterns are the
    rows below, so no other pattern can reach here."""
    if all(p is LinePattern.SQUAREFREE for p in pats):
        return 39
    if all(p is LinePattern.DOUBLE_LINE_PLUS_LINE for p in pats):
        return 38
    if all(p is LinePattern.TRIPLE_LINE for p in pats):
        return 37
    zeros = [m for m, p in enumerate(pats) if p is LinePattern.IDENTICALLY_ZERO]
    if len(zeros) == 1 and all(pats[m] is LinePattern.TRIPLE_LINE
                               for m in range(3) if m != zeros[0]):
        return 34 + zeros[0]
    raise AssertionError(f"slice determinant patterns {[p.value for p in pats]} "
                         "of a concise core in sigma_3 match no catalog row")


def _decide_concise_333(core):
    """('gt3', witness) or ('orbit', k) for a concise 3x3x3 core.

    Strassen's degree-4 equations for sigma_3 form one 27-dimensional
    GL-invariant module, which cuts out sigma_3 (Landsberg and Manivel,
    2004, cited from memory; the tests check it against the Koszul
    flattening rank on a sparse sample).  The blocks Z adj(X) Y - Y adj(X) Z of the
    mode-0 slices (X, Y, Z) = (S0, S1, S2), (S1, S0, S2), (S2, S0, S1), each
    slice taking the adjugate role in turn, are 27 quartics that span the
    module (their values at 70 random integer tensors have rank 27), where
    one block per slicing direction with slice 0 as X, as
    ``strassen_equations`` evaluates them, spans only 19 dimensions.  The
    first nonzero block ends the decision: every block before it is zero,
    so its first nonzero entry i in block b is the first nonzero of the 27
    values, number 9b + i, and the first nine are those of
    ``strassen_equations``.  When all 27 vanish, the core lies in sigma_3,
    each direction's slices give the ten coefficients of its slice cubic,
    and the three line patterns pick the catalog orbit.

    The decision runs on den * core, with den the lcm of the entries'
    denominators, so on integers.  That changes no verdict: the quartics are
    homogeneous of degree 4, so each one vanishes on den * core exactly when
    it vanishes on core, and the slice cubics of den * core are den^3 times
    those of core, with the same line patterns.  A nonzero quartic value v of
    den * core is v / den^4 on core, and the witness quotes that value.
    """
    den = math.lcm(*(x.denominator for x in core.entries))
    if den != 1:
        core = den * core
    s0, s1, s2 = slices = slice_matrices(core, 0)
    for b, (x, y, z) in enumerate(((s0, s1, s2), (s1, s0, s2), (s2, s0, s1))):
        for i, v in enumerate(_block(_adjugate(x), y, z)):
            if v:
                v = _norm(Fraction(v, den ** 4))
                return ("gt3", f"degree-4 commutation equation {9 * b + i} is nonzero ({v})")
    pats = [_line_pattern(_cubic_coefficients(s))
            for s in (slices, slice_matrices(core, 1), slice_matrices(core, 2))]
    return ("orbit", _orbit_from_patterns(pats))


# ---- border-rank-2 rank decision ----

def _pencil_rank(sq, kept):
    """(rank over Q, witness phrase) of an all-2s concise core from its slice
    pencil, whose product points are the roots of a binary quadratic form
    with discriminant disc.  Rank 2 needs two rational product points, so it
    holds when disc is a nonzero square in Q.  A tangent pencil (disc = 0)
    has rank len(kept), the number of factors the core keeps.  Otherwise the
    two product points are conjugate over Q(sqrt(disc)): a 2x2x2 core then
    has rank 3, as every 2x2x2 tensor has rank at most 3, and for 4 or more
    factors no upper bound is known here, so the rank is None."""
    f0 = flattening(sq, 0)
    shape = sq.dims[1:]
    t0 = Tensor(shape if shape else (1,), tuple(f0[0]))
    t1 = Tensor(shape if shape else (1,), tuple(f0[1]))
    forms = []
    for mm in range(t0.order):
        a0 = flattening(t0, mm)
        a1 = flattening(t1, mm)
        ncol = len(a0[0])
        for c1 in range(ncol):
            for c2 in range(c1 + 1, ncol):
                qa = a0[0][c1] * a0[1][c2] - a0[0][c2] * a0[1][c1]
                qc = a1[0][c1] * a1[1][c2] - a1[0][c2] * a1[1][c1]
                qb = (a0[0][c1] * a1[1][c2] + a1[0][c1] * a0[1][c2]
                      - a0[0][c2] * a1[1][c1] - a1[0][c2] * a0[1][c1])
                if qa or qb or qc:
                    forms.append((qa, qb, qc))
    if not forms or any(forms[0][i] * f[j] != forms[0][j] * f[i]
                        for f in forms[1:] for i, j in ((0, 1), (0, 2), (1, 2))):
        return None, "slice pencil analysis inconclusive"
    a, b, c = forms[0]
    disc = Fraction(b * b - 4 * a * c)
    if not disc:
        return len(kept), "slice pencil is tangent (double product point)"
    # disc = p/q in lowest terms is a square iff p and q are squares
    p, q = disc.numerator, disc.denominator
    if p > 0 and math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q:
        return 2, "slice pencil meets two distinct product points"
    return (3 if len(kept) == 3 else None,
            f"slice pencil meets two product points, conjugate over "
            f"Q(sqrt({p * q})) and not rational")


# ---- partitions for the n >= 4 screens ----

def _partitions_into_3(m):
    """All partitions of range(m) into 3 nonempty blocks (blocks by min element)."""
    out = []

    def rec(i, blocks):
        if i == m:
            if len(blocks) == 3:
                out.append([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 3:
            blocks.append([i])
            rec(i + 1, blocks)
            blocks.pop()
    rec(1, [[0]])
    return out


def _grouped_core(sq, blocks, pivots):
    """The concise core of sq with its modes merged into sorted blocks: sq
    read at every block's pivot set (see ``concise_core``), which the dict
    pivots holds per block, computed from its flattening when missing."""
    for b in map(tuple, blocks):
        if b not in pivots:
            pivots[b] = pivot_set(grouped_flattening(sq, b))
    return restrict(sq, blocks, [pivots[tuple(b)] for b in blocks])


# ---- the classifier ----

def classify(t):
    """The ClassificationReport of t, read off its squeezed concise core.

    An all-3s core of n >= 4 factors passes two screens: its bipartition
    flattenings have rank <= 3, and each 3-block grouping with a concise
    3x3x3 core satisfies Strassen's degree-4 module (a smaller grouped core
    lies in sigma_3, as 2x3x3 tensors have border rank <= 3).  These cut
    out sigma_3 set-theoretically (Y. Qi, 2013, cited from memory), so the
    core has border rank 3 and a normal form a + b + c (type i), a + a' + b
    (ii), a + a' + a'' (iii) or a' + b', a and b on a line of the Segre
    variety moving only the distinguished factor (iv).  Grouping keeps
    points, tangent and osculating vectors and such lines, so even after a
    GL move each concise grouping lies in its type's orbit 39, 38, 37, or
    34 + the block holding the distinguished factor.  So the orbits of the
    singleton groupings, decided by the screen, name the type; for type iv
    their distinguished blocks share only the distinguished factor.
    """
    dims = t.dims
    if t.is_zero():
        return ClassificationReport(dims, 0, rank=0, core_dims=(0,) * len(dims),
                                    witnesses=("zero tensor",))
    cc = concise_core(t)
    core = cc.core
    core_dims = core.dims
    for m, d in enumerate(core_dims):
        if d > 3:
            return ClassificationReport(
                dims, GREATER_THAN_3, core_dims=core_dims,
                witnesses=(f"factor {m + 1} flattening has rank {d} >= 4, "
                           "so the border rank is at least 4",))
    if all(d == 1 for d in core_dims):
        return ClassificationReport(dims, 1, rank=1, core_dims=core_dims,
                                    witnesses=("concise core is a single product vector",))
    sq, kept = squeeze(core)
    m = sq.order
    label = core_dims if core_dims != dims else None

    if m == 2:
        # a concise matrix core is square: its row and column ranks agree
        r = sq.dims[0]
        if r == 2:
            return ClassificationReport(
                dims, 2, rank=2, core_dims=core_dims,
                sigma2_support=tuple(k + 1 for k in kept),
                witnesses=("matrix-like concise core of rank 2",))
        return ClassificationReport(
            dims, 3, rank=3, core_dims=core_dims, subspace_label=label,
            witnesses=("matrix-like concise core of rank 3",))

    if m == 3:
        if all(d <= 2 for d in sq.dims):
            rk, w = _pencil_rank(sq, kept)
            return ClassificationReport(
                dims, 2, rank=rk, core_dims=core_dims,
                sigma2_support=tuple(k + 1 for k in kept),
                witnesses=(f"all-2s concise core; {w}",))
        if sq.dims == (3, 3, 3):
            res, data = _decide_concise_333(sq)
            if res == "gt3":
                return ClassificationReport(dims, GREATER_THAN_3, core_dims=core_dims,
                                            witnesses=(data,))
            k = data
            info = ORBIT_INFO[k]
            factor = kept[k - 34] + 1 if info["type"] == "iv" else None
            return ClassificationReport(
                dims, 3, rank=info["rank"], limit_type=info["type"], orbit_id=k,
                distinguished_factor=factor, core_dims=core_dims, subspace_label=label,
                witnesses=("all 27 degree-4 commutation equations vanish on the "
                           "concise core",
                           f"slice determinant pattern selects catalog orbit {k}",))
        # a 3 is present but the core is smaller than (3,3,3)
        return ClassificationReport(
            dims, 3, rank=None, core_dims=core_dims, subspace_label=core_dims,
            witnesses=(f"concise core dims {tuple(sq.dims)} fit inside a (2,3,3) "
                       "pattern, where border rank 3 is automatic; the flattening "
                       "of rank 3 gives the matching lower bound",))

    # m >= 4; a single factor's flattening has rank its core dimension, at
    # most 3, so the bipartitions to check start at two factors.  The pivot
    # columns of a flattening are the pivot set of the modes not in its rows.
    pivots = {}
    bip_ok2 = max(sq.dims) == 2
    for size in range(2, m // 2 + 1):
        for s in combinations(range(m), size):
            if 0 not in s and len(s) * 2 == m:
                continue  # avoid double-counting complementary halves
            keep = pivot_columns(grouped_flattening(sq, s))
            pivots[tuple(x for x in range(m) if x not in s)] = tuple(keep)
            r = len(keep)
            if r >= 4:
                return ClassificationReport(
                    dims, GREATER_THAN_3, core_dims=core_dims,
                    witnesses=(f"flattening with row factors {tuple(x + 1 for x in s)} "
                               f"has rank {r} >= 4",))
            if r > 2:
                bip_ok2 = False
    if bip_ok2:
        rk, w = _pencil_rank(sq, kept)
        return ClassificationReport(
            dims, 2, rank=rk, core_dims=core_dims,
            sigma2_support=tuple(k + 1 for k in kept),
            witnesses=("every bipartition flattening has rank <= 2, which cuts "
                       "out border rank <= 2 set-theoretically", w))

    # strassen screen over every 3-block grouping, keeping the orbits of the
    # singleton groupings {0}, {j}, rest and the factors in all their
    # distinguished blocks (block orbit - 34 for orbits 34..36, else none)
    orbits, common = [], set(range(m))
    for blocks in _partitions_into_3(m):
        gcore = _grouped_core(sq, blocks, pivots)
        if gcore.dims == (3, 3, 3):
            res, data = _decide_concise_333(gcore)
            if res == "gt3":
                return ClassificationReport(
                    dims, GREATER_THAN_3, core_dims=core_dims,
                    witnesses=(f"grouping the factors as {blocks} yields a concise "
                               f"3x3x3 core violating the degree-4 equations ({data})",))
            if blocks[0] == [0] and min(len(blocks[1]), len(blocks[2])) == 1:
                orbits.append(data)
                common &= set(blocks[data - 34]) if data <= 36 else set()

    if all(d == 3 for d in sq.dims):
        kinds = sorted(set(orbits))
        family = ("iv" if len(common) == 1 else
                  {(39,): "i", (38,): "ii", (37,): "iii"}.get(tuple(kinds)))
        if len(orbits) == m - 1 and family:
            f = kept[common.pop()] + 1 if family == "iv" else None
            shared = f", whose distinguished blocks share only factor {f}" if f else ""
            return ClassificationReport(
                dims, 3, rank=3 if family == "i" else None, limit_type=family,
                distinguished_factor=f, core_dims=core_dims,
                witnesses=("every bipartition flattening has rank <= 3 and every "
                           "3-block grouping satisfies the degree-4 equations, which "
                           "cut out border rank <= 3 (Qi)",
                           f"the singleton groupings reduce to catalog orbits "
                           f"{kinds}{shared}, so limit type {family}"))
        return ClassificationReport(
            dims, UNKNOWN, core_dims=core_dims,
            witnesses=(f"{len(orbits)} of {m - 1} singleton groupings reduce to "
                       f"catalog orbits {kinds}, which match no normal-form family; "
                       "border rank 3 vs greater is undecided here",))

    return ClassificationReport(
        dims, UNKNOWN, core_dims=core_dims,
        witnesses=("no certificate applies: some bipartition flattening has rank 3 "
                   f"but the concise core dims {tuple(sq.dims)} match no normal-form "
                   "family",))


# ---- intersection scheme of a 3-dimensional net of 3x3 slices ----

_QUAD_MONOS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
_QIDX = {mm: i for i, mm in enumerate(_QUAD_MONOS)}


def _lin_mul(f, g):
    out = [0, 0, 0, 0, 0, 0]
    for i in range(3):
        if f[i]:
            for j in range(3):
                if g[j]:
                    e = [0, 0, 0]
                    e[i] += 1
                    e[j] += 1
                    out[_QIDX[tuple(e)]] += f[i] * g[j]
    return [_norm(x) for x in out]


_L0_CANDIDATES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 2, 3), (3, 1, 2),
    (1, -2, 4), (2, 3, -1),
)


def scheme_intersection_check(t, mode=0):
    """Type of the length-3 scheme cut out by the 2x2 minors of a slice net.

    The three slices along the chosen mode must span a 3-dimensional net
    N(s,t,u) whose 2x2 minors span a 3-dimensional space of quadrics (the
    generic situation for concise border-rank-3 tensors).  Returns one of
    'three_reduced_points', 'double_plus_reduced', 'curvilinear_triple',
    'fat_triple'.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("the slice-net analysis needs dims (3, 3, 3)")
    s0, s1, s2 = slice_matrices(t, mode)
    if rank([sum(s0, []), sum(s1, []), sum(s2, [])]) != 3:
        raise ValueError("slice net is not 3-dimensional")
    lin = [[(s0[r][c], s1[r][c], s2[r][c]) for c in range(3)] for r in range(3)]
    quads = []
    for r1, r2 in combinations(range(3), 2):
        for c1, c2 in combinations(range(3), 2):
            q = [a - b for a, b in zip(_lin_mul(lin[r1][c1], lin[r2][c2]),
                                       _lin_mul(lin[r1][c2], lin[r2][c1]))]
            quads.append([_norm(x) for x in q])
    rows, pivots = rref(quads)
    rows = rows[:len(pivots)]
    if len(pivots) != 3:
        raise ValueError(f"minor space has dimension {len(pivots)}, expected 3 "
                         "(the net does not cut out a length-3 scheme this way)")
    basis_cols = [c for c in range(6) if c not in pivots]

    def reduce_quad(q):
        q = list(q)
        for row, p in zip(rows, pivots):
            f = q[p]
            if f:
                q = [_norm(x - f * y) for x, y in zip(q, row)]
        return [q[c] for c in basis_cols]

    def mult_op(ell):
        cols = []
        for j in range(3):
            prod = _lin_mul(ell, tuple(1 if i == j else 0 for i in range(3)))
            cols.append(reduce_quad(prod))
        return [[cols[j][i] for j in range(3)] for i in range(3)]

    m0 = None
    ell0 = None
    for cand in _L0_CANDIDATES:
        mm = mult_op(cand)
        if rank(mm) == 3:
            m0, ell0 = mm, cand
            break
    if m0 is None:
        raise ValueError("no candidate linear form acts invertibly on the net")
    inv0 = inverse(m0)
    pair = None
    for v1, v2 in combinations(range(3), 2):
        e1 = tuple(1 if i == v1 else 0 for i in range(3))
        e2 = tuple(1 if i == v2 else 0 for i in range(3))
        if rank([list(ell0), list(e1), list(e2)]) == 3:
            pair = (e1, e2)
            break
    n1 = mat_mul(inv0, mult_op(pair[0]))
    n2 = mat_mul(inv0, mult_op(pair[1]))
    if mat_mul(n1, n2) != mat_mul(n2, n1):
        raise ValueError("multiplication operators do not commute; "
                         "the net is not of the expected kind")
    idm = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    span = [sum(op, []) for op in (idm, n1, n2)]
    dim = rank(span)
    if dim != 3:
        raise ValueError("multiplication operators span a space of dimension "
                         f"{dim}, expected 3")
    for a in (n1, n2):
        for b in (n1, n2):
            if rank(span + [sum(mat_mul(a, b), [])]) != 3:
                raise ValueError("operator span is not closed under multiplication")

    def tr(op):
        return _norm(op[0][0] + op[1][1] + op[2][2])

    ops = (idm, n1, n2)
    gram = [[tr(mat_mul(a, b)) for b in ops] for a in ops]
    gr = rank(gram)
    if gr == 3:
        return "three_reduced_points"
    if gr == 2:
        return "double_plus_reduced"
    # single support point: separate fat from curvilinear
    l1 = Fraction(tr(n1), 3)
    l2 = Fraction(tr(n2), 3)
    a1 = [[_norm(n1[i][j] - (l1 if i == j else 0)) for j in range(3)] for i in range(3)]
    a2 = [[_norm(n2[i][j] - (l2 if i == j else 0)) for j in range(3)] for i in range(3)]
    for x in (a1, a2):
        for y in (a1, a2):
            if any(any(row) for row in mat_mul(x, y)):
                return "curvilinear_triple"
    return "fat_triple"
