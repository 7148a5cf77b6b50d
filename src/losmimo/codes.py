"""Transmission schemes at 4 bits per channel use: spatial multiplexing,
the Golden code and single-antenna 16-QAM, and the two reductions of their
codeword differences, ``Codebook.difference_terms`` and ``difference_spectrum``.

All codebooks are materialised exhaustively (at most 256 codewords), carry
Gray-derived bit labels, and satisfy the average power constraint
``sum_X ||X||_F^2 = |C| T`` with equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Constellation",
    "Codebook",
    "gray_qam",
    "sm_codebook",
    "golden_codebook",
    "simo_codebook",
    "SCHEMES",
    "build_codebook",
    "difference_spectrum",
]

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0
# codewords X_j per chunk of _differences
DISTANCE_ROWS = 16
# decimals to which Codebook.difference_terms rounds the inner products c and
# difference_spectrum its triples before grouping them
TERM_DECIMALS = 9


@dataclass(frozen=True)
class Constellation:
    """Complex constellation indexed by bit label.

    ``points[b]`` is the point whose Gray label is the integer ``b`` read
    MSB-first, so the all-zero label maps to ``points[0]``.
    """

    points: NDArray          # (M,) complex
    bits_per_symbol: int

    @property
    def size(self) -> int:
        return len(self.points)


def _gray_to_index(g: int) -> int:
    # inverse of the reflected Gray map i -> i ^ (i >> 1)
    i = g
    shift = 1
    while (g >> shift) > 0:
        i ^= g >> shift
        shift += 1
    return i


def gray_qam(m: int, avg_energy: float) -> Constellation:
    """Square QAM with per-axis reflected-Gray labelling.

    The first half of each label addresses the in-phase level, the second
    half the quadrature level; points are scaled so the mean symbol energy
    equals ``avg_energy`` exactly.
    """
    if m not in (4, 16):
        raise ValueError(f"unsupported QAM order {m}; expected 4 or 16")
    if not avg_energy > 0:
        raise ValueError("avg_energy must be positive")
    side = int(np.sqrt(m))
    bits_axis = side.bit_length() - 1
    levels = 2.0 * np.arange(side) - (side - 1)
    scale = np.sqrt(avg_energy / (2.0 * np.mean(levels**2)))
    points = np.empty(m, dtype=complex)
    for b in range(m):
        gi = b >> bits_axis
        gq = b & (side - 1)
        points[b] = scale * (levels[_gray_to_index(gi)] + 1j * levels[_gray_to_index(gq)])
    return Constellation(points=points, bits_per_symbol=2 * bits_axis)


@dataclass(frozen=True)
class Codebook:
    """Finite set of 2 x T codewords with bit labels.

    Codeword ``k`` carries the label ``bits[k]``, the binary expansion of ``k``
    MSB-first, so information bits map to codeword indices by base-2 weighting.
    """

    codewords: NDArray   # (K, 2, T) complex
    bits: NDArray        # (K, 4*T) uint8
    slots: int

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def bits_per_codeword(self) -> int:
        return self.bits.shape[1]

    @cached_property
    def difference_terms(self) -> tuple[NDArray, NDArray]:
        """The terms (a, c) of the received distance of the nonzero
        differences dX = X_j - X_k: on G = n_r [[1, rho], [rho*, 1]],
        ``||R dX||_F^2 / n_r = a + 2 Re(rho c)`` with a = ||dX||_F^2 and c =
        dx_0^H dx_1, the inner product of dX's two rows. For each distinct c,
        rounded to ``TERM_DECIMALS`` decimals in its real and imaginary parts
        (and kept rounded), the least a of the differences whose c rounds to
        it; sorted by c. Each chunk of ``_differences`` is reduced as it comes."""
        parts = []
        for d in _differences(self):
            # a sums the squared moduli of dX's entries in C order, as a
            # reduction over dX's axes would
            a = np.zeros(len(d))
            for x in d.reshape(len(d), -1).T:
                a += x.real ** 2 + x.imag ** 2
            c = sum(np.conj(d[:, 0, t]) * d[:, 1, t] for t in range(self.slots))
            parts.append(_least_per_term(a, np.round(c, TERM_DECIMALS)))
        a, c = _least_per_term(*map(np.concatenate, zip(*parts)))
        a.flags.writeable = c.flags.writeable = False
        return a, c

    @cached_property
    def min_sq_distance(self) -> float:
        """``min_{j != k} ||X_j - X_k||_F^2``: the least a of
        ``difference_terms``."""
        return float(self.difference_terms[0].min())


def _differences(codebook: Codebook):
    """X_j - X_k for j < k, in that order, as (n, 2, T) arrays over
    ``DISTANCE_ROWS`` values of j at a time; -dX would add nothing, as it has
    dX's a, c and triple to the bit."""
    cw = codebook.codewords
    for s in range(0, len(cw), DISTANCE_ROWS):
        yield np.concatenate([cw[j] - cw[j + 1:] for j in range(s, len(cw))[:DISTANCE_ROWS]])


def _runs(*keys: NDArray) -> tuple[NDArray, NDArray]:
    """The order that sorts by the 1-D ``keys``, the first primary, and the
    positions in that order where each run of equal keys starts."""
    order = np.lexsort(keys[::-1])
    start = np.arange(len(order)) == 0
    for k in keys:
        k = k[order]
        start[1:] |= k[1:] != k[:-1]
    return order, np.flatnonzero(start)


def _least_per_term(a: NDArray, c: NDArray) -> tuple[NDArray, NDArray]:
    """Each distinct c, sorted, and the least a of the entries with it."""
    order, first = _runs(c.real, c.imag)
    return np.minimum.reduceat(a[order], first), c[order[first]]


def _label_bits(n_codewords: int, n_bits: int) -> NDArray:
    k = np.arange(n_codewords, dtype=np.uint32)
    return ((k[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1).astype(np.uint8)


def sm_codebook() -> Codebook:
    """Spatial multiplexing: one Gray 4-QAM symbol of energy 1/2 per antenna,
    so that E||x||^2 = 1, T = 1."""
    constellation = gray_qam(4, 0.5)
    m = constellation.size
    bps = constellation.bits_per_symbol
    k = np.arange(m * m)
    s1 = constellation.points[k >> bps]
    s2 = constellation.points[k & (m - 1)]
    cw = np.stack([s1, s2], axis=1)[:, :, None]
    return Codebook(codewords=cw, bits=_label_bits(m * m, 2 * bps), slots=1)


def golden_codebook() -> Codebook:
    """Full-rate full-diversity 2 x 2 code built on the golden ratio, T = 2.

    Gray 4-QAM symbols s1..s4 enter as

        [ a (s1 + tau s3)        a (s2 + tau s4)   ]
        [ i ab (s2 + taub s4)    ab (s1 + taub s3) ]

    with tau the golden ratio, taub = 1 - tau its algebraic conjugate,
    a = 1 + i taub and ab = 1 + i tau. The conjugate (not 1/tau, which breaks
    the determinant spread) keeps every nonzero difference full rank. The
    codebook is scaled globally to meet the power constraint with equality.
    """
    tau = GOLDEN_RATIO
    taub = 1.0 - tau
    a = 1.0 + 1j * taub
    ab = 1.0 + 1j * tau
    constellation = gray_qam(4, 0.5)
    m = constellation.size
    bps = constellation.bits_per_symbol
    kk = np.arange(m**4)
    idx = [(kk >> (bps * (3 - j))) & (m - 1) for j in range(4)]
    s1, s2, s3, s4 = (constellation.points[i] for i in idx)
    cw = np.empty((m**4, 2, 2), dtype=complex)
    cw[:, 0, 0] = a * (s1 + tau * s3)
    cw[:, 0, 1] = a * (s2 + tau * s4)
    cw[:, 1, 0] = 1j * ab * (s2 + taub * s4)
    cw[:, 1, 1] = ab * (s1 + taub * s3)
    cw *= np.sqrt(cw.shape[0] * 2 / np.sum(np.abs(cw) ** 2))
    return Codebook(codewords=cw, bits=_label_bits(m**4, 4 * bps), slots=2)


def simo_codebook() -> Codebook:
    """Uncoded Gray 16-QAM of unit energy from the first antenna only, T = 1."""
    constellation = gray_qam(16, 1.0)
    m = constellation.size
    cw = np.zeros((m, 2, 1), dtype=complex)
    cw[:, 0, 0] = constellation.points
    return Codebook(codewords=cw, bits=_label_bits(m, constellation.bits_per_symbol), slots=1)


# the reference schemes, all at 4 bits per channel use
SCHEMES = {"sm": sm_codebook, "golden": golden_codebook, "simo": simo_codebook}


def build_codebook(scheme: str) -> Codebook:
    """The codebook of the scheme named ``scheme``, one of ``SCHEMES``: built
    once per process, with read-only arrays, and shared by every caller."""
    if not (isinstance(scheme, str) and scheme in SCHEMES):
        raise ValueError(f"unknown scheme {scheme!r}; expected sm, golden or simo")
    return _shared_codebook(scheme)


@cache
def _shared_codebook(scheme: str) -> Codebook:
    codebook = SCHEMES[scheme]()
    codebook.codewords.flags.writeable = False
    codebook.bits.flags.writeable = False
    return codebook


def difference_spectrum(codebook: Codebook) -> NDArray:
    """The distinct (||dx1||^2, ||dx2||^2, |dx1^H dx2|) triples of the nonzero
    codeword differences, rounded to ``TERM_DECIMALS`` decimals: the sorted
    rows of ``np.unique(triples, axis=0)``, an (n, 3) array, without the
    numpy.ma import that its first call in a process costs."""
    if codebook.size < 2:
        raise ValueError("need at least 2 codewords")
    parts = []
    for d in _differences(codebook):
        a = np.sum(np.abs(d[:, 0, :]) ** 2, axis=1)
        b = np.sum(np.abs(d[:, 1, :]) ** 2, axis=1)
        c = np.abs(np.sum(np.conj(d[:, 0, :]) * d[:, 1, :], axis=1))
        parts.append(_distinct(np.round(np.column_stack([a, b, c]), TERM_DECIMALS)))
    return _distinct(np.concatenate(parts))


def _distinct(t: NDArray) -> NDArray:
    order, first = _runs(*t.T)
    return t[order[first]]
