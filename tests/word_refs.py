"""Per-word references for `ifs.project_words`: one symbol at a time, on
the frozen maps, with no batch, mask or gathered coefficient table."""

import numpy as np


def compose_word(fam, u, lam, x):
    """f_u(x) and its x-derivative by the chain-rule product, for any
    iterable of symbols u; the empty word is the identity."""
    fam.check_lam(lam)
    maps = fam.at(lam).maps
    y = np.asarray(x, dtype=float)
    dy = np.ones_like(y)
    for s in reversed(tuple(u)):
        fam.map(s)  # a symbol outside 1..m raises ValueError
        mp = maps[s - 1]
        dy = mp.dx(y) * dy
        y = mp.value(y)
    return y, dy


def lambda_derivative(fam, lam, u, x):
    """d/dlam f_u(x) by the recursion that peels one symbol at a time on the
    frozen maps, d = dlam f + f' * d_next, in Python floats."""
    fam.check_lam(lam)
    maps = fam.at(lam).maps
    x = float(x)
    d = 0.0
    for s in reversed(tuple(u)):
        fam.map(s)  # a symbol outside 1..m raises ValueError
        mp = maps[s - 1]
        d = float(mp.dlam(x)) + float(mp.dx(x)) * d
        x = float(mp.value(x))
    return d
