"""Tests for the exact per-band triangle distance density."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from polydist import (
    KMConfig,
    TriangleParams,
    canonicalize_triangle,
    closed_form_curve,
    closed_form_pdf,
    scale_curve,
    within_triangle_pdf,
)
from polydist.closed_form import (
    ENDPOINT_NUDGE,
    CaseThresholds,
    DomainError,
    _band_integral,
    antiderivative,
)
from polydist.km_engine import DiagnosticError

from shapes import random_angle_triple

REF_ANGLES = (80.0, 70.0, 30.0)
FAST = KMConfig(d_theta=math.pi / 360, d_p=1.0 / 400, grid_points=200)


def params_from_degrees(*degs):
    return TriangleParams.from_angles(*[math.radians(x) for x in degs])


# ---------------------------------------------------------------------------
# Parameter container
# ---------------------------------------------------------------------------


def test_from_angles_sorts_and_normalizes():
    p = params_from_degrees(30, 80, 70)  # deliberately unsorted
    assert p.a == 1.0
    assert p.alpha == pytest.approx(math.radians(80))
    assert p.gamma == pytest.approx(math.radians(30))
    assert p.b == pytest.approx(math.sin(p.beta) / math.sin(p.alpha))
    assert p.area == pytest.approx(0.5 * p.b * math.sin(p.gamma))


def test_from_triangle_rescales_longest_side():
    tri = canonicalize_triangle(angles=np.radians([130, 30, 20]), scale=3.7)
    p = TriangleParams.from_triangle(tri)
    assert p.a == 1.0
    assert p.alpha == pytest.approx(math.radians(130))
    ref = params_from_degrees(130, 30, 20)
    assert p.b == pytest.approx(ref.b)
    assert p.c == pytest.approx(ref.c)


def test_params_validation():
    good = params_from_degrees(*REF_ANGLES)
    with pytest.raises(DomainError):
        TriangleParams(2.0, good.b, good.c, good.alpha, good.beta, good.gamma, good.area)
    with pytest.raises(DomainError):
        TriangleParams(1.0, good.c, good.b, good.alpha, good.beta, good.gamma, good.area)
    with pytest.raises(DomainError):
        TriangleParams(1.0, good.b, good.c, good.beta, good.alpha, good.gamma, good.area)
    with pytest.raises(DomainError):
        TriangleParams(1.0, good.b, good.c, good.alpha, good.beta, good.gamma + 0.1, good.area)
    with pytest.raises(DomainError):
        TriangleParams(1.0, 0.9 * good.b, good.c, good.alpha, good.beta, good.gamma, good.area)
    with pytest.raises(DomainError):
        TriangleParams(1.0, good.b, good.c, good.alpha, good.beta, good.gamma, 2 * good.area)


# ---------------------------------------------------------------------------
# Orientation thresholds
# ---------------------------------------------------------------------------


def test_thresholds_unrestricted_for_small_d():
    p = params_from_degrees(60, 60, 60)
    t = CaseThresholds.compute(p, 0.3)
    # b sin(alpha) / d = sin(60deg)/0.3 > 1: every orientation has a long
    # enough chord, no threshold applies
    assert t.low_first is None and t.low_second is None
    assert t.mid_first is None and t.mid_second is None
    assert t.high_first is None and t.high_second is None


def test_thresholds_formulae_for_large_d():
    p = params_from_degrees(*REF_ANGLES)
    d = 0.97
    t = CaseThresholds.compute(p, d)
    t_low = math.asin(p.b * math.sin(p.alpha) / d)
    t_mid = math.asin(p.c * math.sin(p.beta) / d)
    t_high = math.asin(p.c * math.sin(p.alpha) / d)
    assert t.low_first == pytest.approx(t_low - p.beta)
    assert t.low_second == pytest.approx(math.pi - t_low - p.beta)
    assert t.mid_first == pytest.approx(t_mid)
    assert t.mid_second == pytest.approx(math.pi - t_mid)
    assert t.high_first == pytest.approx(math.pi - t_high + p.gamma)
    assert t.high_second == pytest.approx(t_high + p.gamma)
    with pytest.raises(DomainError):
        CaseThresholds.compute(p, 0.0)


# ---------------------------------------------------------------------------
# Antiderivatives against straight numeric quadrature
# ---------------------------------------------------------------------------

# (band, part, d, theta_lo, theta_hi): windows chosen inside each band where
# the longest chord stays above d, so no threshold splits the range.
QUAD_CASES = [
    ("low", "near", 0.40, math.radians(5), math.radians(25)),
    ("low", "far", 0.40, math.radians(5), math.radians(25)),
    ("mid", "near", 0.35, math.radians(40), math.radians(95)),
    ("mid", "far", 0.35, math.radians(40), math.radians(95)),
    ("high", "near", 0.30, math.radians(115), math.radians(140)),
    ("high", "far", 0.30, math.radians(115), math.radians(140)),
]


def chord_pieces(p: TriangleParams, band: str, th: float):
    """Offsets (p1, p2) split by the middle vertex and the chord-length
    slope ``base`` for orientation ``th`` inside ``band``."""
    a, b, c = p.a, p.b, p.c
    al, be, g = p.alpha, p.beta, p.gamma
    if band == "low":
        return b * math.sin(g - th), a * math.sin(th), b * math.sin(al) / math.sin(th + be)
    if band == "mid":
        return b * math.sin(th - g), c * math.sin(th + be), c * math.sin(be) / math.sin(th)
    return a * math.sin(th), -c * math.sin(th + be), c * math.sin(al) / math.sin(th - g)


@pytest.mark.parametrize("band,part,d,lo,hi", QUAD_CASES)
def test_antiderivative_matches_dblquad(band, part, d, lo, hi):
    p = params_from_degrees(*REF_ANGLES)

    def integrand(off, th):
        p1, p2, base = chord_pieces(p, band, th)
        if part == "near":
            chord = off * base / p1
        else:
            chord = (p1 + p2 - off) * base / p2
        return 2.0 * d * (chord - d)

    def off_lo(th):
        p1, p2, base = chord_pieces(p, band, th)
        return d * p1 / base if part == "near" else p1

    def off_hi(th):
        p1, p2, base = chord_pieces(p, band, th)
        return p1 if part == "near" else p1 + p2 - d * p2 / base

    # the window must lie where the longest chord still exceeds d
    assert min(chord_pieces(p, band, t)[2] for t in np.linspace(lo, hi, 200)) > d

    numeric, quad_err = dblquad(integrand, lo, hi, off_lo, off_hi, epsabs=1e-12, epsrel=1e-12)
    numeric /= p.area**2
    which = f"{band}_{part}"
    analytic = (
        antiderivative(which, p, d, hi) - antiderivative(which, p, d, lo)
    ) / p.area**2
    assert quad_err < 1e-9
    assert analytic == pytest.approx(numeric, abs=1e-6)


def test_antiderivative_rejects_bad_input():
    p = params_from_degrees(*REF_ANGLES)
    with pytest.raises(DomainError):
        antiderivative("weird_name", p, 0.5, 0.3)
    with pytest.raises(DomainError):
        antiderivative("low_sideways", p, 0.5, 0.3)
    with pytest.raises(DomainError):
        antiderivative("low_near", p, 1.5, 0.3)
    with pytest.raises(DomainError):
        antiderivative("low_near", p, 0.0, 0.3)


# ---------------------------------------------------------------------------
# Assembled density
# ---------------------------------------------------------------------------


def test_endpoints_and_domain():
    p = params_from_degrees(*REF_ANGLES)
    assert closed_form_pdf(p, 0.0) == 0.0
    assert closed_form_pdf(p, p.a) == 0.0
    with pytest.raises(DomainError):
        closed_form_pdf(p, -0.01)
    with pytest.raises(DomainError):
        closed_form_pdf(p, p.a + 0.01)


def test_reference_triangle_matches_sweep():
    p = params_from_degrees(*REF_ANGLES)
    tri = canonicalize_triangle(angles=np.radians(REF_ANGLES))
    engine = within_triangle_pdf(tri)
    for d in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert closed_form_pdf(p, d) == pytest.approx(
            float(engine.evaluate(d)), abs=1e-3
        )


def test_equilateral_value_matches_frozen_mc():
    # same Monte Carlo reference as the sweep test: pdd_mc, 10^7 pairs,
    # seed 424242, centred 0.02-wide window at d = 0.5
    p = params_from_degrees(60, 60, 60)
    assert closed_form_pdf(p, 0.5) == pytest.approx(1.4638499999999999, abs=0.01)


def test_random_triangles_match_sweep():
    rng = np.random.default_rng(1123)
    d_grid = np.linspace(0.02, 0.98, 25)
    for _ in range(25):
        degs = random_angle_triple(rng)
        p = params_from_degrees(*degs)
        tri = canonicalize_triangle(angles=np.radians(degs))
        engine = within_triangle_pdf(tri, FAST)
        exact = np.array([closed_form_pdf(p, float(d)) for d in d_grid])
        swept = engine.evaluate(d_grid)
        assert np.max(np.abs(exact - swept)) < 2e-3


def test_total_mass_is_one():
    grid = np.linspace(0.0, 1.0, 2001)
    for degs in ((60, 60, 60), REF_ANGLES, (130, 30, 20)):
        p = params_from_degrees(*degs)
        vals = np.array([closed_form_pdf(p, float(d)) for d in grid])
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=2e-3)


def test_scaled_triangle_matches_sweep():
    scale = 2.5
    tri = canonicalize_triangle(angles=np.radians(REF_ANGLES), scale=scale)
    assert tri.diameter == pytest.approx(scale)
    p = TriangleParams.from_triangle(tri)
    curve = scale_curve(closed_form_curve(p, n=200), tri.diameter)
    engine = within_triangle_pdf(tri, FAST)
    d = np.linspace(0.0, scale, 101)
    assert np.max(np.abs(curve.evaluate(d) - engine.evaluate(d))) < 1e-3


def test_continuity_across_formula_branches():
    # threshold distances where the integration limits switch formula
    p = params_from_degrees(*REF_ANGLES)
    h = 1e-9
    special = [
        p.b * math.sin(p.alpha),
        p.c * math.sin(p.beta),
        p.c * math.sin(p.alpha),
        p.b,
        p.c,
    ]
    for d_star in special:
        assert 0.0 < d_star < p.a
        left = closed_form_pdf(p, d_star - h)
        right = closed_form_pdf(p, d_star + h)
        assert abs(left - right) < 1e-6


def test_curve_container():
    p = params_from_degrees(*REF_ANGLES)
    curve = closed_form_curve(p)
    assert len(curve.values) == 501
    assert curve.d_max == 1.0
    assert curve.meta["method"] == "closed_form"
    assert curve.integral() == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------------------
# One array pass over the grid
# ---------------------------------------------------------------------------

FROZEN_NODES = (1, 37, 100, 175, 250, 320, 400, 470, 499)

# closed_form_curve(p).values[FROZEN_NODES] from the per-node scalar
# evaluator that the array pass replaced, with (tolerance) per triangle:
# the slivers' antiderivative differences cancel to about 1e-10
FROZEN_VALUES = {
    (80, 70, 30): (1e-12, [
        0.05233324649772153, 1.5057022935828315, 2.407164918092957,
        1.8368372387366425, 0.9156175685956705, 0.442530803874069,
        0.11217111470562291, 0.002392702203325191, 7.457172703618113e-08]),
    (130, 30, 20): (1e-12, [
        0.1112395511640964, 2.5556575644578814, 2.4262977031519823,
        1.4674776183127702, 0.7271469581777411, 0.27427821165845556,
        0.04577098195561353, 0.001219477680536416, 4.49836445386884e-08]),
    (170, 5, 5): (1e-9, [
        0.5416284307986822, 2.636264239552479, 2.1618768662818457,
        1.3960549478323752, 0.6682066581891908, 0.24913087594018962,
        0.04268812513023795, 0.001152142551966076, 4.2665428181631455e-08]),
    (178, 1, 1): (1e-9, [
        2.1150287502346368, 2.5874001906927973, 2.1549512152552914,
        1.3928013357437903, 0.6667276170784139, 0.24884386227019967,
        0.0426675188602053, 0.00115200518668367, 4.3750205833637466e-08]),
}


@pytest.mark.parametrize("degs", list(FROZEN_VALUES))
def test_curve_matches_frozen_values(degs):
    tol, expected = FROZEN_VALUES[degs]
    values = closed_form_curve(params_from_degrees(*degs)).values
    assert np.max(np.abs(values[list(FROZEN_NODES)] - expected)) <= tol


@pytest.mark.parametrize("degs", [REF_ANGLES, (130, 30, 20), (60, 60, 60), (90, 45, 45),
                                  (170, 5, 5), (178, 1, 1)])
def test_array_call_equals_scalar_calls(degs):
    p = params_from_degrees(*degs)
    grid = np.linspace(0.0, 1.0, 201)
    values = closed_form_pdf(p, grid)
    assert values.shape == grid.shape
    np.testing.assert_array_equal(values, [closed_form_pdf(p, float(d)) for d in grid])
    np.testing.assert_array_equal(values, closed_form_curve(p, n=200).values)
    inner = grid[1:-1]
    t = CaseThresholds.compute(p, inner)
    for k, d in enumerate(inner):
        one = CaseThresholds.compute(p, float(d))
        for name in ("low_first", "low_second", "mid_first", "mid_second",
                     "high_first", "high_second"):
            got, want = getattr(t, name)[k], getattr(one, name)
            assert want is None if np.isnan(got) else got == want
    th = np.linspace(0.1, 0.4, 7)
    np.testing.assert_array_equal(antiderivative("low_near", p, 0.5, th),
                                  [antiderivative("low_near", p, 0.5, x) for x in th])


def test_domain_errors_fire_inside_arrays():
    p = params_from_degrees(*REF_ANGLES)
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(DomainError, match="outside"):
            closed_form_pdf(p, np.array([0.2, bad, 0.5]))
    for d in (np.array([0.3, 0.0]), np.array([0.3, 1.0])):
        with pytest.raises(DomainError):
            antiderivative("mid_far", p, d, 1.0)
    with pytest.raises(DomainError):
        CaseThresholds.compute(p, np.array([0.5, 0.0]))


def test_negative_density_is_a_diagnostic_on_arrays():
    # cancellation in a 0.005-degree sliver: the antiderivative differences
    # lose every digit of a density of order 1
    thin = params_from_degrees(179.99, 0.005, 0.005)
    with pytest.raises(DiagnosticError, match=r"closed form: negative density -0\.00\d+ at d=0\.9"):
        closed_form_pdf(thin, np.linspace(0.0, 1.0, 501))
    with pytest.raises(DiagnosticError, match="negative density"):
        closed_form_curve(thin)


def test_log_sign_guard_fires_on_arrays():
    p = params_from_degrees(*REF_ANGLES)
    # the mid band's log argument sin(theta) changes sign across 0 in the
    # second node's interval only
    d = np.array([0.3, 0.4])
    with pytest.raises(DiagnosticError, match=r"changes sign .* band mid at d=0\.4"):
        _band_integral("mid", p, d, np.array([0.5, -0.1]), np.array([1.0, 0.1]))


def test_singular_endpoint_is_stepped_inside():
    # sin(theta) = 0 at theta = 0 puts log(0) into both mid antiderivatives;
    # the end is re-evaluated ENDPOINT_NUDGE inside instead
    p = params_from_degrees(*REF_ANGLES)
    d = np.array([0.3, 0.6])
    at_zero = _band_integral("mid", p, d, np.zeros(2), np.full(2, 0.5))
    inside = _band_integral("mid", p, d, np.full(2, ENDPOINT_NUDGE), np.full(2, 0.5))
    np.testing.assert_array_equal(at_zero, inside)
