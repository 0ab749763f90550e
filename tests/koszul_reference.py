"""Independent oracles for the concise 3x3x3 decision of ``classify``.

``koszul_rank`` is the rank of the Koszul flattening of T in A (x) B (x) C
with dim A = 3, T_A^1 : A (x) B* -> L^2 A (x) C, which sends a_l (x) beta to
sum_{i,k} T(a_i*, beta, c_k*) (a_l ^ a_i) (x) c_k (Strassen 1983; Landsberg
and Ottaviani 2013).  At 3x3x3 it is a 9x9 matrix whose entries are +-t_ijk
or 0.  A rank-one tensor gives rank 2, so border rank <= 3 forces rank <= 6
in every direction, and the map is GL-equivariant, so its rank does not
depend on the basis.  It shares no code with the quartics of the classifier.

``sparse_draws`` is the sparse sample: draws from ``random.Random(3)`` that
put values from {1, 1, -1, 2} at 3 to 9 random positions of a 3x3x3
tensor.  Its first 20,000 draws hold 9,415 concise tensors.
"""

import random

from border3._linalg import rank
from border3.tensor import make_tensor, permute_modes

_WEDGES = ((0, 1), (0, 2), (1, 2))


def koszul_rank(t, mode):
    """The rank of T_A^1 for the 3x3x3 tensor t, with A its factor at mode.

    Row (l, j) is a_l (x) b_j*, column ((p, q), k) is (a_p ^ a_q) (x) c_k:
    a_l ^ a_i is a_p ^ a_q when (l, i) = (p, q) and its negative when
    (l, i) = (q, p)."""
    e = permute_modes(t, (mode, *(m for m in range(3) if m != mode))).entries
    return rank([[e[9 * q + 3 * j + k] if l == p else -e[9 * p + 3 * j + k] if l == q else 0
                  for p, q in _WEDGES for k in range(3)]
                 for l in range(3) for j in range(3)])


def koszul_ranks(t):
    return tuple(koszul_rank(t, m) for m in range(3))


def sparse_draw(rng):
    """A 3x3x3 tensor with values from {1, 1, -1, 2} at 3 to 9 of its 27
    positions, all drawn from rng."""
    entries = [0] * 27
    for p in rng.sample(range(27), rng.randint(3, 9)):
        entries[p] = rng.choice((1, 1, -1, 2))
    return make_tensor((3, 3, 3), entries)


def sparse_draws(count):
    """The first count draws of the sparse sample."""
    rng = random.Random(3)
    return [sparse_draw(rng) for _ in range(count)]
