"""Library work that no CLI command reaches, run inside a benchmark child.

``kernel_algebra`` is one op of the kernel-algebra workload;
``write_families`` makes the budget-resum input files and is set-up, not
an op.  Both import fermi2d lazily, so importing this module is cheap.
"""
from __future__ import annotations

import itertools
import json

# Grid point of acceptance criterion 3: with its negative and two spins the
# directed space has 16 legs, 24 once shear_prime adds the primed field.
GRID_POINT = (0.25, 1.2, 0.55)
N_COMPONENTS = 8
TOL = 1e-13


def kernel_algebra(seed: int, out: str) -> int:
    """Kernel identities, shear and component extraction on seeded kernels.

    Writes the residuals as JSON and returns 0 when every one is within
    TOL (extraction relative to max(1, max |kernel|), as in criterion 3),
    else 2.
    """
    import numpy as np

    from fermi2d.kernels import (Kernel4, KernelSpace, antisymmetrize,
                                 component_mask, extract_component, flip,
                                 make_grid, random_kernel, reduce_ph,
                                 reduce_pp, sector_norm_p, shear_prime,
                                 value_ph, value_pp)

    rng = np.random.default_rng(seed)
    grid = make_grid([GRID_POINT])
    sp = KernelSpace(grid, nspin=2, nsec=1)
    und = sp.undirected()

    f = random_kernel(sp, rng, antisym=True)
    rec = value_pp(reduce_pp(f), sp).values + value_ph(reduce_ph(f), sp).values
    reconstruction = float(np.abs(rec - f.values).max())

    L = random_kernel(und, rng, conserving=False, number_conserving=False)
    L = Kernel4(und, 0.5 * (L.values + L.values.transpose(3, 2, 1, 0)))
    lhs = reduce_ph(antisymmetrize(value_ph(L, sp)), und).values
    flip_identity = float(np.abs(lhs - (L.values + flip(L).values) / 3.0).max())

    table = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    lookup = {grid.values(i): table[i] for i in range(len(grid))}
    gp = shear_prime(f, lambda k0, kx, ky: lookup[(k0, kx, ky)])
    ivecs = list(itertools.product((-1, 0, 1), repeat=4))
    chosen = sorted(rng.choice(len(ivecs), size=N_COMPONENTS, replace=False))
    extraction = []
    for c in chosen:
        ivec = ivecs[c]
        comp = extract_component(gp, ivec)
        direct = np.zeros_like(gp.values)
        idx = np.ix_(*component_mask(gp.space, ivec))
        direct[idx] = gp.values[idx]
        extraction.append(float(np.abs(comp.values - direct).max()))
    scale = max(1.0, gp.max_abs())

    result = {"legs": [sp.n, gp.space.n],
              "components": [list(ivecs[c]) for c in chosen],
              "reconstruction": reconstruction,
              "flip_identity": flip_identity,
              "extraction": extraction,
              "extraction_scale": scale,
              "sector_norm_3": sector_norm_p(gp, 3)}
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True) + "\n")
    ok = (reconstruction <= TOL and flip_identity <= TOL
          and max(extraction) <= TOL * scale)
    return 0 if ok else 2


def write_families(saturation: float, violation: float, jmax: int,
                   ok_path: str, bad_path: str) -> int:
    """A saturating family (budget ratio ``saturation``) and a copy with
    every q amplitude multiplied by ``violation``, as family text files."""
    from fermi2d import selfenergy as se
    from fermi2d.config import ScaleParams

    params = ScaleParams(jmax=jmax)
    pfam = se.linear_p_family(params)
    for path, scale in ((ok_path, 1.0), (bad_path, violation)):
        fam = se.saturating_q_family(params, scale=scale, saturation=saturation)
        fam.p, fam.dp_dk0, fam.p_amp = pfam.p, pfam.dp_dk0, pfam.p_amp
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(se.family_to_text(fam, params))
    return 0
