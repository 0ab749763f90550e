"""Dense tensors with exact rational entries.

Entries are stored flat in row-major order: index (i_0, ..., i_{n-1}) of a
tensor with dims (d_0, ..., d_{n-1}) sits at sum_m i_m * stride_m, where
stride_m is the product of the dims after m, so the last index varies
fastest.  Only ``_gather`` decodes that layout for whole tensors; permuting,
flattening, restriction and mode maps all read their entries through it.
A flattening reads a cached layout built on ``_gather``: one
``operator.itemgetter`` over its positions, applied to the entries in a
single call and cut into rows.
Scalars are ``int`` or ``fractions.Fraction``.  All operations are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter, mul

from ._linalg import (_norm, gf_pivots, mat_mul, pivot_columns, rank, rref,
                      small_pivots, transpose)

MAX_ENTRIES = 10 ** 6


def _dims_text(dims):
    """dims for a message: the factor count and at most the first eight."""
    more = ", ..." if len(dims) > 8 else ""
    return f"{len(dims)} factors, dims ({', '.join(map(str, dims[:8]))}{more})"


def _check_dims(dims):
    """dims as a tuple of ints, or an error when a tensor of that shape is
    malformed or oversized.  Constructors call it before they build any
    entry, so an oversized request meets the entry guard, not a MemoryError.
    Every dim is at least 1, so the running product only grows: it stops at
    the first factor that passes the guard."""
    dims = tuple(map(int, dims))
    if not dims or min(dims) < 1:
        raise ValueError(f"invalid dims: {_dims_text(dims)}")
    size = 1
    for d in dims:
        size *= d
        if size > MAX_ENTRIES:
            raise OverflowError(f"tensor with {_dims_text(dims)} exceeds the "
                                f"{MAX_ENTRIES}-entry guard")
    return dims


def _fits(idx, dims):
    """Whether idx has one entry per mode of dims, each in range."""
    return len(idx) == len(dims) and all(0 <= j < d for j, d in zip(idx, dims))


def _strides(dims):
    st = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        st[i] = st[i + 1] * dims[i + 1]
    return tuple(st)


@lru_cache(maxsize=256)
def _gather(dims, order):
    """Flat positions of the entries of a dims-shaped tensor, read in row-major
    order over the modes listed in `order` (the first varies slowest)."""
    st = _strides(dims)
    pos = [0]
    for m in order:
        pos = [p + i * st[m] for p in pos for i in range(dims[m])]
    return tuple(pos)


@dataclass(frozen=True)
class Tensor:
    dims: tuple
    entries: tuple  # flat, row-major

    def __post_init__(self):
        object.__setattr__(self, "dims", _check_dims(self.dims))
        if len(self.entries) != math.prod(self.dims):
            raise ValueError("entry count does not match dims")

    @property
    def order(self):
        return len(self.dims)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        if not _fits(idx, self.dims):
            raise IndexError(f"index {idx} out of range for dims {self.dims}")
        return self.entries[sum(map(mul, idx, _strides(self.dims)))]

    def is_zero(self):
        return not any(self.entries)

    def __add__(self, other):
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        return Tensor(self.dims, tuple(_norm(a + b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        return Tensor(self.dims, tuple(_norm(a - b) for a, b in zip(self.entries, other.entries)))

    def __rmul__(self, scalar):
        return Tensor(self.dims, tuple(_norm(scalar * a) for a in self.entries))

    def __neg__(self):
        return Tensor(self.dims, tuple(-a for a in self.entries))


def make_tensor(dims, entries):
    return Tensor(tuple(dims), tuple(entries))


def zero_tensor(dims):
    dims = _check_dims(dims)
    return Tensor(dims, (0,) * math.prod(dims))


def basis_tensor(dims, idx):
    dims, idx = _check_dims(dims), tuple(idx)
    if not _fits(idx, dims):
        raise ValueError(f"index {idx} does not fit dims {dims}")
    e = [0] * math.prod(dims)
    e[sum(map(mul, idx, _strides(dims)))] = 1
    return Tensor(dims, tuple(e))


def rank_one(vectors, coeff=1):
    """coeff * v_1 (x) v_2 (x) ... (x) v_n."""
    dims = _check_dims(len(v) for v in vectors)
    entries = [coeff]
    for v in vectors:
        entries = [_norm(a * x) for a in entries for x in v]
    return Tensor(dims, tuple(entries))


def flattening(t, mode):
    """Mode flattening: dims[mode] rows, complementary row-major columns."""
    return grouped_flattening(t, [mode])


@lru_cache(maxsize=256)
def _flattening_layout(dims, row_modes):
    """(get, ncols) for the flattening of a dims-shaped tensor with the
    sorted modes row_modes as rows: get(entries) reads its entries row by
    row in one call, and each row holds ncols of them."""
    col_modes = tuple(m for m in range(len(dims)) if m not in row_modes)
    pos = _gather(dims, row_modes + col_modes)
    # itemgetter of one position returns the bare entry; a one-entry
    # tensor's entries are already its flattening
    get = itemgetter(*pos) if len(pos) > 1 else tuple
    return get, math.prod(dims[m] for m in col_modes)


def grouped_flattening(t, row_modes):
    """Flattening with an arbitrary subset of modes as rows."""
    get, ncols = _flattening_layout(t.dims, tuple(sorted(row_modes)))
    flat = get(t.entries)
    return [list(flat[r:r + ncols]) for r in range(0, len(flat), ncols)]


def multilinear_rank(t):
    return tuple(rank(flattening(t, m)) for m in range(t.order))


def permute_modes(t, perm):
    """New tensor s with s[i_perm[0], ..] = t[i_0, ..]: mode j of result is mode perm[j] of t."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.order)):
        raise ValueError(f"{perm} is not a permutation of the modes")
    pos = _gather(t.dims, perm)
    return Tensor(tuple(t.dims[p] for p in perm), tuple(map(t.entries.__getitem__, pos)))


def apply_mode_map(t, matrix, mode):
    """Act on one mode by a matrix (rows = new dim, cols = dims[mode])."""
    d = t.dims[mode]
    if any(len(row) != d for row in matrix):
        raise ValueError("matrix shape does not match mode dimension")
    new = mat_mul(matrix, flattening(t, mode))
    # new is the result with `mode` moved first; move it back into place
    others = t.dims[:mode] + t.dims[mode + 1:]
    moved = Tensor((len(matrix),) + others, tuple(x for row in new for x in row))
    return permute_modes(moved, [*range(1, mode + 1), 0, *range(mode + 1, t.order)])


@dataclass(frozen=True)
class GLTuple:
    """One invertible matrix per mode, acting factor-wise."""
    matrices: tuple

    def __post_init__(self):
        for m in self.matrices:
            if len(m) != len(m[0]):
                raise ValueError("GL matrices must be square")


def apply_gl(t, g):
    if len(g.matrices) != t.order:
        raise ValueError("GL tuple order does not match tensor order")
    out = t
    for mode, mat in enumerate(g.matrices):
        out = apply_mode_map(out, mat, mode)
    return out


def random_unimodular(n, rng):
    """Integer matrix with determinant +-1 (product of elementary operations)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5 and n > 1:
        m[0], m[1] = m[1], m[0]
    return m


def random_gl_tuple(dims, rng):
    return GLTuple(tuple(random_unimodular(d, rng) for d in dims))


def slice_matrices(t, mode):
    """For 3-way tensors: the dims[mode] slices as matrices (rows/cols in mode order)."""
    if t.order != 3:
        raise ValueError("slice_matrices requires a 3-way tensor")
    c = t.dims[1 if mode == 2 else 2]  # the last mode other than mode
    get, size = _flattening_layout(t.dims, (mode,))
    flat = get(t.entries)
    return [[list(flat[i:i + c]) for i in range(a, a + size, c)]
            for a in range(0, len(flat), size)]


@lru_cache(maxsize=256)
def _restriction(dims, blocks, keeps):
    """The flat positions that ``restrict`` reads, in its row-major order."""
    if sorted(sum(blocks, ())) != list(range(len(dims))):
        raise ValueError("blocks must cover each mode exactly once")
    pos = [0]
    for b, keep in zip(blocks, keeps):
        offsets = _gather(dims, b)
        if not all(0 <= k < len(offsets) for k in keep):
            raise ValueError(f"kept indices {keep} do not fit block {b}")
        pos = [p + offsets[k] for p in pos for k in keep]
    return tuple(pos)


def restrict(t, blocks, keeps):
    """t read where each block's row-major index, over its modes in
    increasing order as in ``grouped_flattening``, lies in its kept set:
    entry (k_0, k_1, ..) is t at index keeps[0][k_0] of block 0, and so on.
    Integral Fractions become ints, as a 0/1 restriction map leaves them."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    pos = _restriction(t.dims, blocks, tuple(map(tuple, keeps)))
    return Tensor(tuple(map(len, keeps)), tuple(_norm(t.entries[i]) for i in pos))


def pivot_set(rows, q=None):
    """The indices of the rows independent of the rows before them, or (0,)
    when all are zero: ``gf_pivots`` over GF(q) with a prime q; over Q
    ``small_pivots`` for at most three rows, a nonzero leading 3x3 minor or
    else the pivots of their integer elimination, and ``pivot_columns`` for
    more."""
    if q is not None:
        keep = gf_pivots(rows, q)
    elif len(rows) <= 3:
        keep = small_pivots(rows)
    else:
        keep = pivot_columns(transpose(rows))
    return tuple(keep) or (0,)


@dataclass(frozen=True)
class ConciseCore:
    """T = (maps[0] (x) ... (x) maps[n-1]) . core with full-column-rank maps.

    The maps are computed when first read, from the tensor and the field.
    """
    core: Tensor
    tensor: Tensor
    q: int | None = None

    @cached_property
    def maps(self):
        """maps[i]: dims[i] x core.dims[i], the columns of the rref of the
        tensor's transposed mode-i flattening (one zero column for zero).

        The pivots of this rref are the mode's pivot set, at which the core
        was gathered with every other mode's, all read off the tensor, so
        these are the maps of the core's modes.
        """
        maps = []
        for mode, d in enumerate(self.tensor.dims):
            flat = flattening(self.tensor, mode)
            rows, pivots = rref(transpose(flat), self.q)
            maps.append(transpose(rows[:len(pivots)]) if pivots
                        else [[0] for _ in range(d)])
        return tuple(maps)

    def embed(self):
        out = self.core
        for mode, m in enumerate(self.maps):
            out = apply_mode_map(out, m, mode)
        return out


def concise_core(t, q=None):
    """Concise representative: t gathered once, by ``restrict``, at every
    mode's pivot set, the ``pivot_set`` of the input's own flattening (over
    GF(q) with a prime q, which reads a ``Fraction`` as its residue).
    Restricting one mode to a spanning set of its slices leaves the
    relations among every other mode's slices unchanged, so no pivot set
    depends on another mode's restriction.  A concise input is its own
    core; the maps (``ConciseCore.maps``) are computed only when read."""
    keeps = [pivot_set(flattening(t, mode), q) for mode in range(t.order)]
    if all(len(k) == d for k, d in zip(keeps, t.dims)):
        return ConciseCore(t, t, q)
    return ConciseCore(restrict(t, [(m,) for m in range(t.order)], keeps), t, q)


def squeeze(t):
    """Drop modes of dimension 1.  Returns (tensor, kept_mode_indices)."""
    kept = [m for m, d in enumerate(t.dims) if d > 1]
    if len(kept) == len(t.dims):
        return t, kept
    if not kept:
        return Tensor((1,), t.entries), []
    dims = tuple(t.dims[m] for m in kept)
    return Tensor(dims, t.entries), kept


def random_tensor(dims, rng, lo=-9, hi=9):
    dims = _check_dims(dims)
    return Tensor(dims, tuple(rng.randint(lo, hi) for _ in range(math.prod(dims))))


# ---- scalar and JSON conventions ----

def parse_scalar(s):
    """Accept int, 'p', or 'p/q' strings; exact.

    A plain integer string is read by int(); any other string goes through
    Fraction, except exponent notation, whose exponent could make the
    number arbitrarily long.
    """
    # JSON entries are strings: an exact type test skips the numbers ABCs
    if type(s) is not str:
        if isinstance(s, bool):
            raise ValueError("boolean is not a scalar")
        if isinstance(s, int):
            return s
        if isinstance(s, Fraction):
            return _norm(s)
        if not isinstance(s, str):
            raise ValueError(
                f"cannot parse scalar {s!r} exactly (floats are rejected)")
    digits = s[1:] if s[:1] == "-" else s
    if digits.isdigit() and digits.isascii():
        return int(s)
    if "e" in s or "E" in s:
        raise ValueError(f"scalar {s!r} uses exponent notation; "
                         "write it as 'p' or 'p/q'")
    try:
        return _norm(Fraction(s))
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def scalar_str(x):
    return str(x)


def tensor_to_json(t):
    return {"dims": list(t.dims), "entries": [scalar_str(x) for x in t.entries]}


def tensor_from_json(obj):
    if not isinstance(obj, dict) or "dims" not in obj or "entries" not in obj:
        raise ValueError("tensor JSON must have 'dims' and 'entries'")
    dims = obj["dims"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ValueError("tensor JSON dims must be a list of integers")
    if not isinstance(obj["entries"], list):
        raise ValueError("tensor JSON entries must be a list of scalars")
    return Tensor(dims, tuple(map(parse_scalar, obj["entries"])))


def loads_tensor(text):
    return tensor_from_json(json.loads(text))


def dumps_tensor(t):
    return json.dumps(tensor_to_json(t))
