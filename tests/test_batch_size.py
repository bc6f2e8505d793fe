"""No result depends on how many points are evaluated at once.

From 16,384 complex values on, numpy evaluates a product whose right
operand is a temporary, x * (y + z), in place as (y + z) * x, and complex
x * t and t * x differ in the last bit.  So each product keeps its
temporary as the left operand, or is an np.multiply call.  The points of
four fuzz strata are evaluated in one block and again in blocks of 1, 64,
512, 20,000 and 50,000, and must agree bit for bit: the det ratios and the
height ratio at every point, every fuzz residual of each stratum, and per
class claim the ratios |derivative|/bound that multiplier._top maximizes,
at the 3-D explicit-H points.  Blocks of 1, 64 and 512 run on the first
points of each kind only, and a block that holds all of a kind's points is
its one block.
"""

import functools

import numpy as np
import pytest

from lopstokes import multiplier
from lopstokes.coefficients import height_ratio
from lopstokes.config import RunConfig
from lopstokes.lopatinski import det_ratios
from lopstokes.resolvent import assemble_batch, fuzz_corpus

CFG = RunConfig()
FLUID = CFG.fluid

# points per fuzz stratum: one block of them holds 1-D complex arrays of
# 16,384 values, the least size numpy evaluates a product in place at
STRATUM = 16_384

# blocks of 1, 64 and 512 run on the first points of each kind only
SUBSET = {1: 8, 64: 2_048, 512: 4_096}


@functools.cache
def strata() -> dict:
    """(lam, xi, h, top) of each (dim, mode) stratum of a fuzz corpus."""
    blocks = {}
    for dim, mode, *cols in fuzz_corpus(7, 4 * STRATUM, CFG.sector):
        blocks.setdefault((dim, mode), []).append(cols)
    return {key: tuple(np.concatenate(c) for c in zip(*b)) for key, b in blocks.items()}


def _fuzz(key, sl):
    cols = (c[sl] for c in strata()[key])
    return assemble_batch(FLUID, *cols, key[1], strict=False).residuals(energy=True)


def _lam_a(sl):
    lam = np.concatenate([s[0] for s in strata().values()])
    a = np.concatenate([np.linalg.norm(s[1], axis=1) for s in strata().values()])
    return lam[sl], a[sl]


def _det(sl):
    absdet, ratio = det_ratios(FLUID, *_lam_a(sl))
    return {"absdet": absdet, "ratio": ratio}


def _height(sl):
    return {"ratio": height_ratio(FLUID, *_lam_a(sl))}


_CLAIMS = multiplier.declared_claims(0.0)


def _class(sl):
    """Per claim, |d_xi^kappa (tau d_tau)^ell m|/bound over (ell, kappa,
    point) at the 3-D explicit-H points."""
    lam, xi = (c[sl] for c in strata()[3, "explicit-H"][:2])
    a = np.hypot(*xi.T)
    scale = np.sqrt(np.abs(lam)) + a
    args = multiplier._jet_args(FLUID, lam, *xi.T)
    return {cl.name: multiplier._derivatives(cl.symbol(*args), lam.imag)
            / multiplier._bound(cl.s, cl.mtype, scale, a) for cl in _CLAIMS}


KINDS = {"det": (_det, 4 * STRATUM), "height": (_height, 4 * STRATUM),
         "class": (_class, STRATUM),
         **{f"fuzz-{d}-{m}": (functools.partial(_fuzz, (d, m)), STRATUM)
            for d in (2, 3) for m in ("explicit-H", "kinematic")}}


def _in_blocks(fn, block: int, n: int) -> dict:
    parts = [fn(slice(s, min(s + block, n))) for s in range(0, n, block)]
    return {k: np.concatenate([p[k] for p in parts], axis=-1) for k in parts[0]}


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@functools.cache
def one_block(kind: str) -> dict:
    fn, n = KINDS[kind]
    return fn(slice(0, n))


@pytest.mark.parametrize("block", [1, 64, 512, 20_000, 50_000])
def test_results_do_not_depend_on_the_block_size(block):
    differ = {}
    for kind, (fn, n) in KINDS.items():
        n = min(n, SUBSET.get(block, n))
        if block < n:
            want, got = one_block(kind), _in_blocks(fn, block, n)
            counts = {k: int(np.count_nonzero(_bits(got[k]) != _bits(want[k][..., :n])))
                      for k in want}
            differ[kind] = {k: c for k, c in counts.items() if c}
    assert not any(differ.values()), differ
