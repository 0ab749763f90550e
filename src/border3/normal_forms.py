"""Normal forms for border rank <= 3 and cominuscule coordinate charts.

Conventions used throughout the package:

* factors (modes) are labelled 1..n in user-facing arguments;
* sigma2_point(n, J) is the tangent-type point with one term per j in J,
  putting the second basis vector in slot j and the first elsewhere;
* sigma3_point(kind, ...) builds the four limit-type families "i", "ii",
  "iii", "iv" (type iv takes the distinguished factor as an argument);
* orbit_representative(k), k = 34..39, returns the catalog representative of
  the six concise orbits at dims (3, 3, 3); their slice pencils
  s*S0 + t*S1 + u*S2 reproduce the catalog patterns verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, product
import math
from operator import mul

from .tensor import Tensor, _check_dims, _strides, zero_tensor

SIGMA3_KINDS = ("i", "ii", "iii", "iv")


def _unit_index(n, overrides):
    """Multi-index equal to 0 except mode->coord overrides (0-based modes)."""
    idx = [0] * n
    for m, c in overrides.items():
        idx[m] = c
    return tuple(idx)


def _normal_form_terms(kind, n, J=(), factor=1):
    """Basis multi-indices whose sum is a normal form, each index once.

    kind "sigma2" reads its support J (1-based factors), type iv its
    distinguished factor.  These lists define the tensors and are their
    rank decompositions too.
    """
    if kind == "sigma2":
        return [_unit_index(n, {j - 1: 1}) for j in J]
    if kind == "i":
        return [(c,) * n for c in range(3)]
    if kind == "ii":
        return [(2,) * n] + [_unit_index(n, {j: 1}) for j in range(n)]
    if kind == "iii":
        return ([_unit_index(n, {j: 1, k: 1})
                 for j, k in combinations(range(n), 2)]
                + [_unit_index(n, {j: 2}) for j in range(n)])
    f = factor - 1
    rest = [j for j in range(n) if j != f]
    return ([_unit_index(n, {f: 1, j: 1}) for j in rest]
            + [_unit_index(n, {f: 2})]
            + [_unit_index(n, {j: 2}) for j in rest])


def _sum_of_basis(dims, idxs):
    """The sum of the basis tensors at the multi-indices idxs."""
    zero = zero_tensor(dims)
    st = _strides(zero.dims)
    entries = list(zero.entries)
    for idx in idxs:
        entries[sum(map(mul, idx, st))] += 1
    return Tensor(zero.dims, tuple(entries))


def sigma2_point(n, J=None, dims=None):
    """Tangent-type point of border rank 2 with support J (1-based factors)."""
    if J is None:
        J = set(range(1, n + 1))
    J = sorted(set(J))
    if not J or J[0] < 1 or J[-1] > n:
        raise ValueError(f"J must be a nonempty subset of 1..{n}")
    if dims is None:
        dims = (2,) * n
    dims = tuple(dims)
    if len(dims) != n:
        raise ValueError("dims must have one entry per factor")
    for j in J:
        if dims[j - 1] < 2:
            raise ValueError(f"factor {j} needs dimension >= 2")
    # before the terms are listed: they hold n * len(J) indices
    dims = _check_dims(dims)
    return _sum_of_basis(dims, _normal_form_terms("sigma2", n, J=J))


def sigma3_point(kind, n=3, dims=None, factor=1):
    """Normal forms of the four border-rank-3 limit types (dims >= 3 per factor)."""
    if kind not in SIGMA3_KINDS:
        raise ValueError(f"kind must be one of {SIGMA3_KINDS}")
    if n < 3:
        raise ValueError("the border-rank-3 families need n >= 3")
    if dims is None:
        dims = (3,) * n
    dims = tuple(dims)
    if len(dims) != n or any(d < 3 for d in dims):
        raise ValueError("each factor needs dimension >= 3")
    if not 1 <= factor <= n:
        raise ValueError(f"factor must be in 1..{n}")
    # before the terms are listed: type iii has n * (n + 1) / 2 of n indices
    dims = _check_dims(dims)
    return _sum_of_basis(dims, _normal_form_terms(kind, n, factor=factor))


# ---- the six concise orbits at dims (3, 3, 3) ----

_ORBIT_TERMS = {
    34: [(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, 0), (2, 0, 2)],
    35: [(0, 0, 1), (0, 1, 0), (0, 2, 2), (1, 0, 0), (2, 2, 0)],
    36: [(0, 0, 1), (0, 1, 0), (0, 2, 2), (1, 0, 0), (2, 0, 2)],
    37: [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)],
    38: [(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, 2)],
    39: [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
}

ORBIT_IDS = tuple(sorted(_ORBIT_TERMS))

ORBIT_INFO = {
    34: {"type": "iv", "factor": 1, "border_rank": 3, "rank": 5,
         "stabilizer_dim": 10, "orbit_dim": 16, "dim_offset": 11},
    35: {"type": "iv", "factor": 2, "border_rank": 3, "rank": 5,
         "stabilizer_dim": 10, "orbit_dim": 16, "dim_offset": 11},
    36: {"type": "iv", "factor": 3, "border_rank": 3, "rank": 5,
         "stabilizer_dim": 10, "orbit_dim": 16, "dim_offset": 11},
    37: {"type": "iii", "factor": None, "border_rank": 3, "rank": 5,
         "stabilizer_dim": 8, "orbit_dim": 18, "dim_offset": 9},
    38: {"type": "ii", "factor": None, "border_rank": 3, "rank": 4,
         "stabilizer_dim": 7, "orbit_dim": 19, "dim_offset": 8},
    39: {"type": "i", "factor": None, "border_rank": 3, "rank": 3,
         "stabilizer_dim": 6, "orbit_dim": 20, "dim_offset": 7},
}


def orbit_representative(orbit_id):
    if orbit_id not in _ORBIT_TERMS:
        raise ValueError(f"orbit_id must be one of {list(_ORBIT_TERMS)}")
    return _sum_of_basis((3, 3, 3), _ORBIT_TERMS[orbit_id])


# ---- generic-ring determinants and Pfaffians ----

def generic_det(m):
    """Determinant by division-free expansion along the first row; entries
    from any commutative ring."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        term = m[0][j] * generic_det([row[:j] + row[j + 1:] for row in m[1:]])
        if j % 2:
            term = -1 * term
        total = term if total is None else total + term
    return total


def generic_pfaffian(m):
    """Pfaffian of a skew matrix by division-free expansion along the first row."""
    n = len(m)
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    if n == 0:
        return 1
    if n == 2:
        return m[0][1]
    total = None
    for j in range(1, n):
        keep = [i for i in range(n) if i not in (0, j)]
        sub = [[m[r][c] for c in keep] for r in keep]
        term = m[0][j] * generic_pfaffian(sub)
        if j % 2 == 0:
            term = -1 * term
        total = term if total is None else total + term
    return total


# ---- cominuscule coordinate models ----

@dataclass(frozen=True)
class CominusculeModel:
    """An affine chart of a cominuscule variety, coordinatised by minors.

    kind: "segre" (dims), "grassmann" (k, n), "lagrangian" (k), "spinor" (k).
    phi maps tangent coordinates to the full ambient coordinate vector; the
    degree-s component of phi is the s-th fundamental form evaluated on the
    diagonal, and its slots embed N_s into the ambient coordinates.
    """
    kind: str
    dims: tuple = None
    k: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind == "segre":
            if not self.dims or any(d < 1 for d in self.dims):
                raise ValueError("segre model needs factor dims")
        elif self.kind == "grassmann":
            if not 0 < self.k < self.n:
                raise ValueError("grassmann model needs 0 < k < n")
        elif self.kind in ("lagrangian", "spinor"):
            if self.k < 1:
                raise ValueError("model needs k >= 1")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    # -- coordinate bookkeeping --

    @property
    def tangent_dim(self):
        if self.kind == "segre":
            return sum(d - 1 for d in self.dims)
        if self.kind == "grassmann":
            return self.k * (self.n - self.k)
        if self.kind == "lagrangian":
            return self.k * (self.k + 1) // 2
        return self.k * (self.k - 1) // 2

    @property
    def base_degree(self):
        """Largest s with a nonzero s-th fundamental form."""
        if self.kind == "segre":
            return len(self.dims)
        if self.kind == "grassmann":
            return min(self.k, self.n - self.k)
        if self.kind == "lagrangian":
            return self.k
        return self.k // 2

    def ambient_slots(self):
        """Slot labels in ambient order, each tagged with its form degree s."""
        return self._slots

    @cached_property
    def _slots(self):
        # built once per model: phi reads the slots on every evaluation
        if self.kind == "segre":
            return tuple((sum(1 for x in idx if x), idx)
                         for idx in product(*map(range, self.dims)))
        if self.kind == "grassmann":
            out = []
            for s in range(self.k + 1):
                for rs in combinations(range(self.k), s):
                    for cs in combinations(range(self.n - self.k), s):
                        out.append((s, (rs, cs)))
            return tuple(out)
        if self.kind == "lagrangian":
            out = []
            for s in range(self.k + 1):
                subs = list(combinations(range(self.k), s))
                for i, rs in enumerate(subs):
                    for cs in subs[i:]:
                        out.append((s, (rs, cs)))
            return tuple(out)
        out = []
        for s in range(0, self.k + 1, 2):
            for sub in combinations(range(self.k), s):
                out.append((s // 2, sub))
        return tuple(out)

    @property
    def ambient_dim(self):
        """Number of ambient coordinates, len(ambient_slots()) in closed form."""
        if self.kind == "segre":
            return math.prod(self.dims)
        if self.kind == "grassmann":
            return math.comb(self.n, self.k)
        if self.kind == "lagrangian":
            return sum(math.comb(math.comb(self.k, s) + 1, 2) for s in range(self.k + 1))
        return 2 ** (self.k - 1)

    @cached_property
    def _block_slices(self):
        """Per Segre factor, the slice of the tangent coordinates holding its
        block (x_1, ..., x_{d-1}), in factor order; empty when d = 1."""
        ends = list(accumulate((d - 1 for d in self.dims), initial=0))
        return tuple(map(slice, ends, ends[1:]))

    def slot_block(self, s):
        """Ambient indices of the degree-s slots (the N_s component)."""
        return [i for i, (deg, _) in enumerate(self.ambient_slots()) if deg == s]

    # -- tangent vector -> structured chart data --

    def _structure(self, v):
        if len(v) != self.tangent_dim:
            raise ValueError("tangent vector has wrong length")
        if self.kind == "segre":
            return [list(v[b]) for b in self._block_slices]
        if self.kind == "grassmann":
            w = self.n - self.k
            return [list(v[r * w:(r + 1) * w]) for r in range(self.k)]
        if self.kind == "lagrangian":
            m = [[0] * self.k for _ in range(self.k)]
            pos = 0
            for i in range(self.k):
                for j in range(i, self.k):
                    m[i][j] = v[pos]
                    m[j][i] = v[pos]
                    pos += 1
            return m
        m = [[0] * self.k for _ in range(self.k)]
        pos = 0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                m[i][j] = v[pos]
                m[j][i] = -1 * v[pos]
                pos += 1
        return m

    def phi(self, v):
        """Full chart map on a tangent vector with ring-element entries.

        Slot order is ambient_slots() order.  On a Segre chart the slots run
        over the index tuples in row-major order, so phi is the outer
        product of the blocks (1, x_1, ..., x_{d-1}), built factor by
        factor: each entry is the raw product of the block entries its index
        picks, first factor first, and the all-zero index gives 1.
        """
        st = self._structure(v)
        if self.kind == "segre":
            out = [1]
            for blk in st:
                # the leading 1 (no index picked yet) gives the entries themselves
                rest = [y for x in out[1:] for y in (x, *[x * e for e in blk])]
                out = [1, *blk, *rest]
            return out
        return [self._slot_value(st, label) for _, label in self.ambient_slots()]

    def _slot_value(self, st, label):
        if self.kind in ("grassmann", "lagrangian"):
            rs, cs = label
            if not rs:
                return 1
            return generic_det([[st[r][c] for c in cs] for r in rs])
        sub = label
        if not sub:
            return 1
        return generic_pfaffian([[st[r][c] for c in sub] for r in sub])

    def fundamental_form_diag(self, s, v):
        """F_s(v^s) as {ambient_slot: value}: the degree-s slots of phi(v),
        without their numeric zeros; ring-element values are all kept."""
        if s < 0:
            raise ValueError("form degree must be >= 0")
        vals = self.phi(v)  # refuses a wrong length at every degree
        return {i: x for i, ((deg, _), x) in enumerate(zip(self._slots, vals))
                if deg == s and (not isinstance(x, (int, Fraction)) or x)}


def segre_model(dims):
    return CominusculeModel("segre", dims=tuple(dims))


def grassmann_model(k, n):
    return CominusculeModel("grassmann", k=k, n=n)


def lagrangian_model(k):
    return CominusculeModel("lagrangian", k=k)


def spinor_model(k):
    return CominusculeModel("spinor", k=k)


def segre_tensor_from_ambient(model, vec):
    """Reshape an ambient segre coordinate vector into a Tensor."""
    if model.kind != "segre":
        raise ValueError("ambient reshape is defined for segre models")
    return Tensor(model.dims, tuple(vec))
