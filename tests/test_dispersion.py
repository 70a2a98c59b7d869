"""Permittivity models: frozen values, derivative oracles, realization identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochfem import dispersion as dp
from blochfem.errors import BlochFEMError, NearPoleError


# Lossless two-oscillator silicon-like material used throughout the suite.
def two_oscillator():
    return dp.SimplifiedDL(
        alpha2=2.0,
        terms=(
            dp.LorentzTerm(xi2=98.6960, eta2=55.2698),
            dp.LorentzTerm(xi2=197.3921, eta2=63.1655),
        ),
    )


# Seven-term fitted silver model (real part, damped).
SILVER_XI2 = (416.6166, 352.7054, -339.9124, 492.5687, -19.6143, -527.5597, 98.0101)
SILVER_ETA2 = (92.1086, 71.6269, 71.4552, 227.8301, 47.4923, 93.5605, 121.3762)
SILVER_GAMMA = (2.7820, 0.9597, 0.9500, 13.1508, 9.2697, 3.2624, 2.2712)


def silver():
    return dp.RealDL(
        alpha=1.143,
        terms=tuple(
            dp.LorentzTerm(xi2=x, eta2=e, gamma=g)
            for x, e, g in zip(SILVER_XI2, SILVER_ETA2, SILVER_GAMMA)
        ),
    )


ALL_MODELS = [
    pytest.param(dp.Constant(8.0), id="constant"),
    pytest.param(two_oscillator(), id="lossless-dl"),
    pytest.param(silver(), id="damped-dl"),
]


def eval_safe(model, omega):
    """eval, skipping the sample when it lands in a pole guard window."""
    try:
        return dp.eval(model, omega)
    except NearPoleError:
        pytest.skip("sampled inside a pole guard window")


# ---------------------------------------------------------------------------
# frozen point values


def test_constant_is_constant():
    m = dp.Constant(8.0)
    for w in (0.0, 1.0, -3.7, 100.0):
        assert dp.eval(m, w) == 8.0
        assert dp.eval_dlambda(m, w * w) == 0.0


def test_two_oscillator_static_value():
    # alpha2 + xi2_1/eta2_1 + xi2_2/eta2_2 at omega = 0
    got = dp.eval(two_oscillator(), 0.0)
    assert got == pytest.approx(6.910711608102749, rel=1e-13)


def test_single_term_derivative_hand_value():
    # d/dlam [1/(4 - lam)] at lam=1 is 1/(4-1)^2 = 1/9
    m = dp.SimplifiedDL(alpha2=1.0, terms=(dp.LorentzTerm(xi2=1.0, eta2=4.0),))
    assert dp.eval_dlambda(m, 1.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_realization_frozen_values():
    r = dp.realize(two_oscillator())
    assert r.Xi == pytest.approx(296.0881, rel=1e-12)
    assert np.allclose(r.A, [55.2698, 63.1655], rtol=1e-14)
    # exact arithmetic on the oscillator parameters (30-digit check offline)
    assert r.b[0] == pytest.approx(73.85735021512754, rel=1e-10)
    assert r.b[1] == pytest.approx(111.66185871885708, rel=1e-10)
    # and the looser published rounding of the same numbers
    assert abs(r.b[0] - 73.862) < 5e-3
    assert abs(r.b[1] - 111.658) < 5e-3
    assert r.order == 2


def test_realization_identity_at_10():
    model = two_oscillator()
    r = dp.realize(model)
    lhs = dp.transfer(r, 10.0)
    rhs = sum(t.xi2 * t.eta2 / (t.eta2 - 10.0) for t in model.terms)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_realization_identity_random_sweep():
    # transfer function route vs direct partial-fraction route, 1000 points
    model = two_oscillator()
    r = dp.realize(model)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        lam = rng.uniform(-50.0, 50.0)
        try:
            lhs = dp.transfer(r, lam)
        except NearPoleError:
            continue
        rhs = sum(t.xi2 * t.eta2 / (t.eta2 - lam) for t in model.terms)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        checked += 1


def test_realize_rejects_other_variants():
    with pytest.raises(TypeError):
        dp.realize(dp.Constant(8.0))
    with pytest.raises(TypeError):
        dp.realize(silver())


# ---------------------------------------------------------------------------
# derivatives vs central finite differences


@pytest.mark.parametrize("model", ALL_MODELS)
def test_derivative_matches_finite_differences(model):
    rng = np.random.default_rng(7)
    h = 1e-6
    checked = 0
    while checked < 50:
        lam = rng.uniform(0.3, 12.0) ** 2
        try:
            an = dp.eval_dlambda(model, lam)
            fd = (dp.eval_lambda(model, lam + h) - dp.eval_lambda(model, lam - h)) / (2 * h)
        except NearPoleError:
            continue
        assert abs(an - fd) <= 1e-6 * (1.0 + abs(an))
        checked += 1


# ---------------------------------------------------------------------------
# evenness (structural: models are functions of omega^2)


@pytest.mark.parametrize("model", ALL_MODELS)
@given(omega=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_evenness(model, omega):
    try:
        plus = dp.eval(model, omega)
    except NearPoleError:
        with pytest.raises(NearPoleError):
            dp.eval(model, -omega)
        return
    assert dp.eval(model, -omega) == plus


# ---------------------------------------------------------------------------
# damped model reduces to the lossless one when every gamma is zero


def test_gamma_zero_reduction_is_exact():
    lossless = two_oscillator()
    damped = dp.RealDL(
        alpha=lossless.alpha2,
        terms=tuple(dp.LorentzTerm(t.xi2, t.eta2, 0.0) for t in lossless.terms),
    )
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        w = rng.uniform(0.0, 20.0)
        try:
            a = dp.eval(damped, w)
            b = dp.eval(lossless, w)
            da = dp.eval_dlambda(damped, w * w)
            db = dp.eval_dlambda(lossless, w * w)
        except NearPoleError:
            continue
        assert a == b
        assert da == db
        checked += 1


# ---------------------------------------------------------------------------
# poles and the guard window


def test_pole_set_lossless():
    assert np.allclose(dp.real_poles(two_oscillator()), [55.2698, 63.1655])
    assert dp.real_poles(dp.Constant(3.0)).size == 0


def test_pole_set_damped_only_counts_undamped_terms():
    m = dp.RealDL(
        alpha=1.0,
        terms=(dp.LorentzTerm(1.0, 4.0, 0.5), dp.LorentzTerm(1.0, 9.0, 0.0)),
    )
    assert np.allclose(dp.real_poles(m), [9.0])


def test_guard_triggers_at_pole():
    m = two_oscillator()
    with pytest.raises(NearPoleError):
        dp.eval(m, np.sqrt(55.2698))
    with pytest.raises(NearPoleError):
        dp.eval_dlambda(m, 63.1655)
    with pytest.raises(NearPoleError):
        dp.eval_lambda(m, 55.2698)
    with pytest.raises(NearPoleError):
        dp.transfer(dp.realize(m), 63.1655 * (1.0 + 1e-10))


def test_drude_term_at_zero_is_a_package_error():
    # eta2 = 0 with damping: (eta2 - lam)^2 + gamma^2 lam vanishes at lam = 0
    m = dp.RealDL(alpha=1.0, terms=(dp.LorentzTerm(xi2=2.0, eta2=0.0, gamma=0.5),))
    for f in (dp.eval_lambda, dp.eval_dlambda):
        with pytest.raises(NearPoleError, match="damped term"):
            f(m, 0.0)
        assert np.isfinite(f(m, 1e-3))
    assert issubclass(NearPoleError, BlochFEMError)


def test_divergence_is_monotone_up_to_the_guard():
    # approaching the pole from below along a sequence that stays outside the
    # guard window, the lossless model blows up monotonically
    m = dp.SimplifiedDL(alpha2=1.0, terms=(dp.LorentzTerm(xi2=1.0, eta2=4.0),))
    lams = 4.0 - np.geomspace(1.0, 1e-6, 25)
    vals = [dp.eval_lambda(m, lam) for lam in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert np.isfinite(vals[-1])


# ---------------------------------------------------------------------------
# parameter validation


def test_lorentz_term_validation():
    with pytest.raises(ValueError):
        dp.LorentzTerm(xi2=1.0, eta2=-1.0)
    with pytest.raises(ValueError):
        dp.LorentzTerm(xi2=1.0, eta2=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        dp.LorentzTerm(xi2=np.inf, eta2=1.0)
    # negative oscillator strength is allowed at the term level (fitted
    # real-part models use it) ...
    t = dp.LorentzTerm(xi2=-2.0, eta2=1.0, gamma=0.3)
    assert t.xi2 == -2.0


def test_lossless_variant_rejects_damping_and_negative_strength():
    # ... but the lossless variant, which must realize as a symmetric
    # positive system, rejects it
    with pytest.raises(ValueError):
        dp.SimplifiedDL(alpha2=1.0, terms=(dp.LorentzTerm(1.0, 1.0, gamma=0.5),))
    with pytest.raises(ValueError):
        dp.SimplifiedDL(alpha2=1.0, terms=(dp.LorentzTerm(-1.0, 1.0),))
    with pytest.raises(ValueError):
        dp.SimplifiedDL(alpha2=0.0, terms=())
    with pytest.raises(ValueError):
        dp.SimplifiedDL(alpha2=-2.0, terms=())


def test_silver_model_evaluates_with_negative_strengths():
    m = silver()
    v = dp.eval(m, 5.0)
    assert np.isfinite(v)
    assert dp.eval(m, -5.0) == v
