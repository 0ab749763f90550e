"""Reference grouped tensor: modes merged into blocks by a permuted copy.

The way classify built each grouping's tensor before grouped cores were
gathered at pivot sets: permute the modes block by block, then read the
permuted entries with one mode per block.  Kept to check ``restrict`` and
``classifier._grouped_core`` against ``concise_core`` of the merged tensor.
"""

import math

from border3.tensor import Tensor, permute_modes


def group_modes(t, partition):
    """Merge modes into blocks (a partition of range(order), blocks ordered)."""
    blocks = [list(b) for b in partition]
    flatmodes = [m for b in blocks for m in b]
    if sorted(flatmodes) != list(range(t.order)):
        raise ValueError("partition must cover each mode exactly once")
    p = permute_modes(t, flatmodes)
    dims = tuple(math.prod(t.dims[m] for m in b) for b in blocks)
    return Tensor(dims, p.entries)
