import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fermi2d.config import ScaleParams
from fermi2d.kernels import KernelSpace, make_grid
from fermi2d.scales import ScaleModel, quadratic_model


@pytest.fixture(scope="session")
def params():
    return ScaleParams()


@pytest.fixture(scope="session")
def disp():
    return quadratic_model()


@pytest.fixture(scope="session")
def scales(params, disp):
    return ScaleModel(params, disp)


@pytest.fixture(scope="session")
def fermi_point(disp):
    """A point on the Fermi curve (angle 0.3) and its angle."""
    th = 0.3
    rad = float(disp.fermi_radius(th))
    return th, rad * math.cos(th), rad * math.sin(th)


@pytest.fixture(scope="session")
def small_spaces():
    """Hypothesis strategy for small kernel spaces: one grid point plus its
    negative, 1-2 spins, 1-2 sectors with a random admissibility pattern;
    draw with data.draw(small_spaces(directed))."""

    @st.composite
    def spaces(draw, directed=True):
        point = draw(st.tuples(*[st.floats(0.05, 2.0)] * 3))
        nspin, nsec = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        sec_ok = draw(st.lists(st.booleans(), min_size=2 * nsec,
                               max_size=2 * nsec))
        return KernelSpace(make_grid([point]), nspin=nspin, nsec=nsec,
                           sec_ok=np.reshape(sec_ok, (nsec, 2)),
                           directed=directed)

    return spaces
