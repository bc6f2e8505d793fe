"""Taylor jets against mpmath.

The jet coefficients of K, S_jm, R+_Nm and 1/det L, as the multiplier
estimator computes them, must match mpmath.diff at 50 digits of the same
boundary_entries and SymbolKit formulas run on mpmath scalars.  The three
roots come from the shared radicands (symbols.root_radicands) under
mpmath.sqrt, and A = sqrt(xi_1^2 + xi_2^2), so the reference differentiates
the very formulas the jets propagate.  Each coefficient is compared at the
scale of the symbol, A^|kappa| (|lambda| + A^2)^c for dxi^kappa dlam^c,
relative to the largest of its block.
"""

import math

import mpmath
import numpy as np
import pytest

from lopstokes import multiplier
from lopstokes.coefficients import SymbolKit
from lopstokes.config import REFERENCE_PARAMS, STRESS_PARAM_SETS
from lopstokes.multiplier import KAPPAS, declared_claims
from lopstokes.symbols import root_radicands

NAMES = ("K", "S_jm", "R+_Nm", "detL_inv")
FNS = {c.name: c.fn for c in declared_claims(0.0) if c.name in NAMES}
# the reference fluid, a viscous compressible phase, and sigma = 0
FLUIDS = (REFERENCE_PARAMS, STRESS_PARAM_SETS[1], STRESS_PARAM_SETS[6])
EPSILON = math.pi / 4


def _points(seed: int, n: int):
    """n random sector points: |lam| in [1e-2, 1e2], A in [1e-1, 1e1], any
    arg lambda inside the sector and any frequency direction."""
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-2, 2, n) * np.exp(1j * rng.uniform(-1, 1, n) * (math.pi - EPSILON))
    a = 10.0 ** rng.uniform(-1, 1, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return lam, a * np.cos(phi), a * np.sin(phi)


def _mp_symbols(fluid):
    """f(name) -> the function (xi_1, xi_2, lam) -> symbol on mpmath
    scalars; one kit per argument triple and working precision (mpmath.diff
    raises it), shared by the four symbols."""
    kits = {}

    def kit_at(x1, x2, lam):
        key = (x1, x2, lam, mpmath.mp.prec)
        if key not in kits:
            a = mpmath.sqrt(x1 * x1 + x2 * x2)
            roots = tuple(mpmath.sqrt(r) for r in root_radicands(fluid, lam, a * a))
            kits[key] = SymbolKit.from_roots(fluid, lam, a, roots)
        return kits[key]

    return lambda name: lambda x1, x2, lam: FNS[name](kit_at(x1, x2, lam), 1j * x1)


@pytest.mark.parametrize("fluid_index", range(len(FLUIDS)))
def test_jet_coefficients_match_mpmath(fluid_index):
    fluid = FLUIDS[fluid_index]
    lam, xi1, xi2 = _points(20261018 + fluid_index, 7)
    kit, i1 = multiplier._jet_args(fluid, lam, xi1, xi2)
    jets = {name: FNS[name](kit, i1) for name in NAMES}
    with mpmath.workdps(50):
        symbol = _mp_symbols(fluid)
        for p in range(lam.size):
            at = (mpmath.mpf(xi1[p]), mpmath.mpf(xi2[p]), mpmath.mpc(lam[p]))
            a = math.hypot(xi1[p], xi2[p])
            for name in NAMES:
                jet = jets[name]
                for c, block in enumerate((jet.x, jet.l)):
                    got, want = [], []
                    for k, kappa in enumerate(KAPPAS):
                        order = (int(kappa[0]), int(kappa[1]), c)
                        exact = mpmath.diff(symbol(name), at, order) / (
                            math.factorial(order[0]) * math.factorial(order[1]))
                        # each coefficient at the scale of the symbol itself:
                        # dxi^kappa dlam^c weighs A^|kappa| (|lam| + A^2)^c
                        weight = a ** (order[0] + order[1]) * (abs(lam[p]) + a * a) ** c
                        got.append(complex(block[k, p]) * weight)
                        want.append(complex(exact) * weight)
                    err = max(abs(g - w) for g, w in zip(got, want))
                    # the worst seen is 6.6e-11, the lambda block of S_jm for
                    # mu_plus = 1e3, where the double formula itself loses digits
                    assert err <= 1e-9 * max(abs(w) for w in want), (name, c, p, got, want)
