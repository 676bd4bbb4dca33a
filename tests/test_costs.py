import math

import pytest

from nuceft.costs import (COMPACT_KINETIC_DEPTH, CONTACT_DEPTH, KINETIC_DEPTH,
                          LONG_RANGE_PAIR_DEPTH, OPE_CONTACT_DEPTH,
                          OPE_EXCHANGE_DEPTH, StepCost, dynpi_step_cost,
                          interaction_ball_sites, ope_step_cost,
                          pionless_step_cost, t_synthesis)
from nuceft.errors import DomainError


def test_component_depths_exact():
    assert KINETIC_DEPTH == {("x", False): 16, ("y", False): 22,
                             ("z", False): 26, ("x", True): 20,
                             ("y", True): 26, ("z", True): 30}
    assert COMPACT_KINETIC_DEPTH == {False: 10, True: 14}
    assert CONTACT_DEPTH == {False: 8, True: 22}
    assert OPE_CONTACT_DEPTH == {False: 6, True: 26}
    assert OPE_EXCHANGE_DEPTH == {False: 54, True: 98}
    assert LONG_RANGE_PAIR_DEPTH == {False: 14336, True: 16384}


def test_pionless_step_depth_table_exact():
    want = {("vc", 1, False): 520, ("vc", 1, True): 630,
            ("vc", 2, False): 1014, ("vc", 2, True): 1230,
            ("compact", 1, False): 68, ("compact", 1, True): 106,
            ("compact", 2, False): 126, ("compact", 2, True): 190}
    for (enc, order, ctrl), depth in want.items():
        assert pionless_step_cost(enc, order, ctrl).depth_2q == depth


def test_pionless_rz_count():
    assert pionless_step_cost("vc", 1, False, L=10).rz_count == 42 * 1000
    assert pionless_step_cost("vc", 1, True, L=10).rz_count == 84 * 1000
    with pytest.raises(DomainError):
        pionless_step_cost("vc", 3, False)
    with pytest.raises(DomainError):
        pionless_step_cost("jw", 1, False)


def test_interaction_ball():
    assert interaction_ball_sites(1) == math.ceil(4 * math.pi * 8 / 3)
    assert interaction_ball_sites(10) == 5576
    with pytest.raises(DomainError):
        interaction_ball_sites(0.5)


def test_ope_step_cost():
    R = interaction_ball_sites(10)
    step = ope_step_cost(10, 10, controlled=False)
    assert step.depth_2q == 572 + 14336 * R
    assert step.rz_count == (52 + 1024 * R) * 1000
    ctrl = ope_step_cost(10, 10, controlled=True)
    assert ctrl.depth_2q == 732 + 16384 * R
    assert ctrl.rz_count == 2 * (52 + 1024 * R) * 1000


def test_dynpi_step_cost():
    n = 39
    half = math.ceil(n / 2)
    step = dynpi_step_cost(n, 10, controlled=False)
    boson = 2 * n * n + 16 * half + 26 * n - 32
    assert step.depth_2q == max(572, boson) + 98 * n * n + 958 * n + 1392
    assert step.rz_count == (33 * n * n + 90 * n + 64) * 1000
    ctrl = dynpi_step_cost(n, 10, controlled=True)
    assert ctrl.depth_2q == max(732, 28 * n * n + 16 * half + 40 * n - 32) \
        + 146 * n * n + 1918 * n + 1440
    assert ctrl.rz_count == 2 * (33 * n * n + 90 * n + 64) * 1000


def test_dynpi_small_register_uses_floor_branch():
    # tiny registers fall back to the fermionic-circuit floor
    step = dynpi_step_cost(1, 1, controlled=False)
    assert step.depth_2q == 572 + 98 + 958 + 1392


def test_t_synthesis():
    assert t_synthesis(1000, 0.05) == pytest.approx(26780.869236481863)
    # monotone in count and in tightness
    assert t_synthesis(2000, 0.05) > t_synthesis(1000, 0.05)
    assert t_synthesis(1000, 0.01) > t_synthesis(1000, 0.05)
    with pytest.raises(DomainError):
        t_synthesis(0, 0.05)
    with pytest.raises(DomainError):
        t_synthesis(10, 0.0)
    # 1.15*log2(2*rz/eps) + 9.2 > 0 only while eps < 512*rz; at rz=1,
    # eps=256 the fit gives 1.15*(-7) + 9.2 = 1.15
    assert t_synthesis(1, 256.0) == pytest.approx(1.15)
    for rz, eps in ((42, 5e5), (42000, 5e11), (1, 1e6)):
        with pytest.raises(DomainError) as info:
            t_synthesis(rz, eps)
        assert f"synthesis budget {eps:g} is too large for {rz} rotations" \
            in str(info.value)


def test_qubit_counts():
    def qubits(step):
        return step.qubits, step.ancillas

    assert qubits(pionless_step_cost("vc", 1, False, L=10)) == (6000, 0)
    assert qubits(pionless_step_cost("compact", 1, False, L=10)) == (10000, 0)
    assert qubits(ope_step_cost(10, 10, False)) == (6000, 0)
    assert qubits(dynpi_step_cost(39, 10, False)) == (6000 + 3000 * 39, 0)
    # a controlled (phase-estimation) step adds the control ancilla
    assert qubits(pionless_step_cost("vc", 1, True, L=10)) == (6001, 1)
    assert qubits(pionless_step_cost("compact", 1, True, L=10)) == (10001, 1)
    assert qubits(ope_step_cost(10, 10, True)) == (6001, 1)
    # and dynpi one more per fermionic and per bosonic register at each site
    assert qubits(dynpi_step_cost(39, 10, True)) == \
        (6000 + 3000 * 39 + 1 + 4000, 1 + 4000)
    with pytest.raises(DomainError):
        dynpi_step_cost(0, 10, False)


def test_step_cost_guards():
    with pytest.raises(DomainError):
        StepCost(-1, 0, 6, 0)
    for L in (0, -1):
        with pytest.raises(DomainError,
                           match=f"^lattice extent must be >= 1, got {L}$"):
            pionless_step_cost("vc", 1, False, L)
