"""Thresholds and the mutation hook shared between test modules.

mutated() scales one boundary-matrix entry or one solution amplitude by
(1 + rel) for the duration of a with-block, by patching the entry formula
(lopatinski.boundary_entries) or the amplitude formula (resolvent.amplitudes)
from outside.  The residual checks never read either formula, so a mutated
solve is internally consistent and only the physics checks can expose it;
the mutation tests prove that they do.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import pytest

from lopstokes import lopatinski, resolvent

# Thresholds the tests apply to the package's results; the thresholds the
# package applies itself live in lopstokes.config.Tolerances.
TEST_TOL = SimpleNamespace(
    beta_residual=1e-12,        # interface system residual of solve_betas
    beta_jump=1e-13,            # tangential velocity jump against h
    coeff_vs_direct=1e-11,      # symbol tables against direct solves
    slope_dev=0.05,             # measured K/A slope against slope_limit
    ode_residual=1e-10,
    interface_residual=1e-11,
    mutation_floor=1e-4,        # residual a perturbed amplitude must trigger
    fft_roundtrip=1e-13,
    single_mode=1e-12,          # one-mode grid solve against the profile solve
)

# boundary-matrix entries a mutation can target: name -> (side, slot), side 0
# the compressible (+) block and 1 the incompressible (-) block
ENTRY_TARGETS = {
    "l11p": (0, 0), "l12p": (0, 1), "l21p": (0, 2), "l22p": (0, 3),
    "l11m": (1, 0), "l12m": (1, 1), "l21m": (1, 2), "l22m": (1, 3),
}


def amplitude_targets(dim: int) -> tuple[str, ...]:
    """Names of every solution amplitude at dimension dim."""
    names = []
    for base in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
        names.extend(f"{base}_{j + 1}" for j in range(dim - 1))
        names.append(f"{base}_n")
    names.append("gamma_minus")
    return tuple(names)


@contextlib.contextmanager
def mutated(target: str, rel):
    """Inside the block, scale the named entry or amplitude by (1 + rel).

    rel may be an array, one factor per point of a batch.  A name that is
    no entry and no amplitude of the solved dimension raises ValueError
    inside the solve, so a typo cannot pass as an undetected mutation.
    """
    bump = 1.0 + rel
    with pytest.MonkeyPatch.context() as mp:
        if target in ENTRY_TARGETS:
            side, slot = ENTRY_TARGETS[target]
            clean = lopatinski.boundary_entries

            def entries(*args):
                *blocks, p = clean(*args)
                blocks[side] = tuple(v * bump if k == slot else v
                                     for k, v in enumerate(blocks[side]))
                return (*blocks, p)

            mp.setattr(lopatinski, "boundary_entries", entries)
        else:
            clean_amps = resolvent.amplitudes
            base, _, comp = target.rpartition("_")

            def amplitudes(*args):
                amps = dict(clean_amps(*args))
                dim = amps["beta_plus"].shape[0]
                if target not in amplitude_targets(dim):
                    raise ValueError(f"no amplitude {target!r} at dimension {dim}")
                if target == "gamma_minus":
                    amps[target] = amps[target] * bump
                    return amps
                row = dim - 1 if comp == "n" else int(comp) - 1
                amps[base] = amps[base].copy()
                amps[base][row] = amps[base][row] * bump
                return amps

            mp.setattr(resolvent, "amplitudes", amplitudes)
        yield


def mutation_probe(fluid, sp, data, rel: float = 1e-3) -> dict[str, float]:
    """Worst ODE or interface residual after mutating each single amplitude
    or boundary-matrix entry by (1 + rel); every value must clear the
    detection floor for the suite to be falsifiable."""
    out = {}
    for target in (*amplitude_targets(sp.dim), *ENTRY_TARGETS):
        with mutated(target, rel):
            sol = resolvent.assemble_profiles(fluid, sp, data)
        out[target] = max(resolvent.ode_residual(fluid, sp, sol),
                          resolvent.interface_residual(fluid, sp, sol).max())
    return out
