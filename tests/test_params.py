import math

import pytest

from fracsaddle.params import (
    ModelParams,
    admissible,
    critical_exponent,
    extension_constant,
    riesz_constant,
)


def test_reference_quadruple_admissible():
    assert admissible(ModelParams(3, 0.5, 2.0, 2.0))


def test_admissible_rejects_out_of_range():
    base = dict(N=3, s=0.5, alpha=2.0, p=2.0)
    bad = [
        dict(base, s=0.0),
        dict(base, s=1.0),
        dict(base, s=-0.2),
        dict(base, alpha=0.0),
        dict(base, alpha=3.0),
        dict(base, alpha=3.5),
        dict(base, p=1.5),
        dict(base, p=2.5),  # p_crit = 2.5, strict upper bound
        dict(base, p=7.0),
        dict(base, N=1),
        dict(base, s=float("nan")),
    ]
    for kw in bad:
        assert not admissible(ModelParams(**kw)), kw


def test_upper_exponent_bound_is_strict():
    # at s = 0.25, alpha = 2: p_crit = 5 / 2.5 = 2, so even p = 2 is out
    assert not admissible(ModelParams(3, 0.25, 2.0, 2.0))
    assert admissible(ModelParams(3, 0.25, 2.5, 2.0))


def test_planar_case_needs_experimental_flag():
    assert not admissible(ModelParams(2, 0.25, 1.5, 2.0))
    assert admissible(ModelParams(2, 0.25, 1.5, 2.0, experimental=True))


def test_critical_exponent_values():
    assert critical_exponent(ModelParams(3, 0.5, 2.0, 2.0)) == pytest.approx(2.5)
    assert critical_exponent(ModelParams(3, 0.25, 2.0, 2.0)) == pytest.approx(2.0)
    assert critical_exponent(ModelParams(4, 0.5, 1.0, 2.0)) == pytest.approx(5.0 / 3.0)


def test_riesz_constant_closed_forms():
    # N=3, alpha=2: Gamma(1/2) / (Gamma(1) pi^{3/2} 4) = 1/(4 pi)
    assert riesz_constant(3, 2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    # N=1, alpha=1/2: Gamma(1/4) cancels, leaving 1/sqrt(2 pi)
    assert riesz_constant(1, 0.5) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_extension_constant_reciprocal_pairing():
    # k_s k_{1-s} = 1 from the Gamma reflection structure, and k_{1/2} = 1
    assert extension_constant(0.5) == pytest.approx(1.0, rel=1e-15)
    for s in (0.1, 0.25, 0.4, 0.75, 0.9):
        assert extension_constant(s) * extension_constant(1.0 - s) == pytest.approx(1.0, rel=1e-12)


def test_constants_of_the_reference_quadruple():
    # what `fracsaddle info` prints for (N, s, alpha, p) = (3, 1/2, 2, 2):
    # A_2 = Gamma(1/2) / (Gamma(1) pi^{3/2} 4) = 1/(4 pi) in three dimensions
    assert riesz_constant(3, 2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    assert extension_constant(0.5) == pytest.approx(1.0, rel=1e-15)
