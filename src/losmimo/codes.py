"""Transmission schemes at 4 bits per channel use: spatial multiplexing,
the Golden code and single-antenna 16-QAM, plus their difference spectra.

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
    "DiffSpectrum",
    "gray_qam",
    "sm_codebook",
    "golden_codebook",
    "simo_codebook",
    "SCHEMES",
    "build_codebook",
    "difference_spectrum",
]

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0
# codewords per chunk of Codebook.min_sq_distance's difference table
DISTANCE_ROWS = 16


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
    def min_sq_distance(self) -> float:
        """``min_{j != k} ||X_j - X_k||_F^2``, taken in ``DISTANCE_ROWS``-row
        chunks of the difference table."""
        cw = self.codewords
        best = np.inf
        for s in range(0, self.size, DISTANCE_ROWS):
            d = cw[s:s + DISTANCE_ROWS, None] - cw[None]
            d2 = (d.real ** 2 + d.imag ** 2).sum(axis=(2, 3))
            rows = np.arange(len(d2))
            d2[rows, s + rows] = np.inf
            best = min(best, float(d2.min()))
        return best


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


@dataclass(frozen=True)
class DiffSpectrum:
    """Deduplicated (||dx1||^2, ||dx2||^2, |dx1^H dx2|) triples over all
    nonzero codeword differences."""

    triples: NDArray  # (n, 3) float, columns as documented

    @property
    def size(self) -> int:
        return len(self.triples)


def difference_spectrum(codebook: Codebook) -> DiffSpectrum:
    """Enumerate all ordered codeword pairs and reduce their differences."""
    cw = codebook.codewords
    if len(cw) < 2:
        raise ValueError("need at least 2 codewords")
    d = (cw[:, None] - cw[None, :]).reshape(-1, 2, cw.shape[2])
    nz = np.abs(d).sum(axis=(1, 2)) > 1e-12
    d = d[nz]
    a = np.sum(np.abs(d[:, 0, :]) ** 2, axis=1)
    b = np.sum(np.abs(d[:, 1, :]) ** 2, axis=1)
    c = np.abs(np.sum(np.conj(d[:, 0, :]) * d[:, 1, :], axis=1))
    triples = np.unique(np.round(np.column_stack([a, b, c]), 9), axis=0)
    return DiffSpectrum(triples=triples)
