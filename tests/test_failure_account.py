"""The facts behind the standing acceptance failures, as passing tests.

test_a05 and test_a09 fail on the default device with the reference
impurity (q = -1).  Their account rests on facts of the model that these
tests pin, each with a margin, so that a change of the solver's last digits
leaves them green and a change that breaks the account turns them red:

* a05 sweeps the barrier across xi = 0.5-1.3 meV at zero detuning.  The
  Gaussian bump enters only the one-body terms, so Delta U is the same
  0.7815 meV at every xi, and the anticrossing sits inside a05's tilt
  window (eps = 0.65-1.00 meV).
* The hop t is affine in xi and vanishes at xi = 1.4895 meV, just past
  the top of a05's grid, so a05's barrier |dJ/J|, which scales as 1/t,
  grows towards the top of its grid.
* a09's diagonal barrier clause needs |dJ/J| to fall from R = 1.5a to 2a,
  but the impurity's hop shift Zt12 changes sign in between.
"""
import math

import numpy as np
import pytest

from dqdsim import DeviceParams, Impurity, hubbard_parameters

A05_BARRIER_GRID = [float(xi) for xi in np.arange(0.5, 1.3001, 0.1)]


def test_delta_u_is_the_same_at_every_barrier_of_a05():
    delta_u = [hubbard_parameters(DeviceParams(epsilon=0.0, xi=xi)).delta_u
               for xi in A05_BARRIER_GRID]
    assert delta_u == pytest.approx([0.781495] * len(A05_BARRIER_GRID), rel=0, abs=1e-6)
    assert max(delta_u) - min(delta_u) <= 1e-12


def test_the_hop_is_affine_in_xi_and_vanishes_at_1_4895_mev():
    t0, t1 = (hubbard_parameters(DeviceParams(epsilon=0.0, xi=xi)).t for xi in (0.0, 1.0))
    slope = t1 - t0
    assert t0 == pytest.approx(0.040472, rel=0, abs=1e-6)
    assert slope == pytest.approx(-0.027172, rel=0, abs=1e-6)
    for xi in A05_BARRIER_GRID:
        t = hubbard_parameters(DeviceParams(epsilon=0.0, xi=xi)).t
        assert t == pytest.approx(t0 + slope * xi, rel=0, abs=1e-12), xi
    assert -t0 / slope == pytest.approx(1.4895, rel=0, abs=5e-4)
    # The zero lies just past the top of a05's grid, where t is 0.0051 meV.
    assert A05_BARRIER_GRID[-1] < -t0 / slope


def test_the_hop_shift_changes_sign_on_a09s_diagonal():
    base = DeviceParams()
    ux, uy = -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    zt12 = [hubbard_parameters(base, Impurity(r * base.a * ux, r * base.a * uy, -1.0)).Zt12
            for r in (1.5, 2.0)]
    assert zt12 == pytest.approx([0.00502, -0.01627], rel=0, abs=5e-5)
    assert zt12[0] > 0.0 > zt12[1]
