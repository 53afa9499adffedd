"""Reference Fourier transform: the direct O(4^k) summation that
``planted.fourier.all_coefficients`` used below ``_FWHT_MIN_K`` before it
kept only the butterfly transform. Tests compare the transform against it."""
from __future__ import annotations

import numpy as np

# Width from which the library switched from direct summation to the
# butterfly transform; the comparison widths straddle it.
_FWHT_MIN_K = 9


def _coefficients_direct(values: np.ndarray, k: int) -> np.ndarray:
    idx = np.arange(2**k)
    # chi_S(z) = (-1)^{|S & ~z|}; table of signs indexed [S, z]
    flipped = idx[None, :] ^ (2**k - 1)
    signs = 1 - 2 * (np.bitwise_count((idx[:, None] & flipped).astype(np.uint64)).astype(np.int64) & 1)
    return (signs @ values) / 2**k
