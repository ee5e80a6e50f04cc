"""References for `mstats._fourier_mean`: the local-moment sum evaluated
cell by cell, Horner over the order on each (frequency, cell) entry before
the cell's own phase, and the direct sum of exp(i xi x) with its real and
imaginary parts summed by math.fsum, so that only the rounding of each
term is left."""

import math

import numpy as np

from hypifs.mstats import FOURIER_BLOCK


def horner_fourier_mean(pts, freqs):
    """mean_k exp(i xi x_k) from the local Taylor moments over ceil(xi_max)
    cells, one complex exponential per frequency and cell."""
    n = len(pts)
    xi_max = float(np.abs(freqs).max(initial=0.0))
    cells = max(1, math.ceil(xi_max))
    a = xi_max / (2 * cells)
    order, term = 0, 1.0
    while term > 2.0 ** -53:
        order += 1
        term *= a / order
    if cells * order < n:
        b = np.minimum((pts * cells).astype(np.intp), cells - 1)
        centres = (np.arange(cells) + 0.5) / cells
        d = pts - centres[b]
        moments, w = [], np.ones(n)
        for k in range(order):
            moments.append(np.bincount(b, weights=w, minlength=cells))
            w = w * d / (k + 1)
    else:
        centres, moments = pts, [np.ones(n)]
    rows = max(1, FOURIER_BLOCK // len(centres))
    out = np.empty(len(freqs), dtype=complex)
    for s in range(0, len(freqs), rows):
        ixi = 1j * freqs[s:s + rows, None]
        acc = np.empty((len(ixi), len(centres)), dtype=complex)
        acc[...] = moments[-1]
        for mk in moments[-2::-1]:
            acc *= ixi
            acc += mk
        acc *= np.exp(ixi * centres)
        out[s:s + rows] = acc.sum(axis=1)
    return out / n


def fsum_fourier_mean(pts, freqs):
    """mean_k exp(i xi x_k), each part summed by math.fsum."""
    out = np.empty(len(freqs), dtype=complex)
    for f, xi in enumerate(freqs):
        phase = xi * pts
        out[f] = complex(math.fsum(np.cos(phase)), math.fsum(np.sin(phase))) / len(pts)
    return out
