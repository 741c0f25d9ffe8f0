"""Closed-form exponent formulas: spot values, guards, and the identity
alpha = 1 - s/gamma that ties the Holder and energy exponents together."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdi_lab import cli
from pdi_lab.audit import caccioppoli_audit, gradient_energy, holder_fit, morrey_norm
from pdi_lab.errors import PreconditionViolation
from pdi_lab.liouville import (
    EuclideanArea,
    ExponentialArea,
    PowerArea,
    area_condition_test,
    liouville_classify_euclidean,
    sigma_lower_bound,
)
from pdi_lab.params import (
    INFINITY,
    Branch,
    GrowthRegime,
    LiouvilleRegime,
    ParamGrid,
    ProblemParams,
    _energy_arm,
    _gradient_arm,
    caccioppoli_exponent,
    classify_regime,
    exponent_report,
    holder_exponent,
    liouville_threshold,
)
from pdi_lab.radial import PLaplacian, PowerProfile, bump_profile_scale, residual_scan, sharpness_profile
from pdi_lab.solver import RadialPowerSource, SampledSource, SolverConfig, solve_radial_dirichlet


@pytest.mark.parametrize(
    "dim,p,gamma,q,expected",
    [
        (3, 2.0, 4.0, INFINITY, 2 / 3),
        (3, 2.0, 3.0, 2.0, 1 / 2),
        (4, 3.0, 5.0, INFINITY, 2 / 3),
    ],
)
def test_holder_exponent_values(dim, p, gamma, q, expected):
    params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
    assert holder_exponent(params) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "dim,p,gamma,q,expected",
    [
        (3, 2.0, 3.0, 3.0, 3 / 2),
        (3, 2.0, 3.0, 1.0, 3.0),
        (3, 2.0, 2.0, INFINITY, 2.0),
    ],
)
def test_caccioppoli_exponent_values(dim, p, gamma, q, expected):
    params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
    assert caccioppoli_exponent(params) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "dim,p,expected",
    [(3, 2.0, 1.5), (4, 3.0, 8 / 3), (2, 1.5, 1.0)],
)
def test_liouville_threshold_values(dim, p, expected):
    assert liouville_threshold(dim, p) == pytest.approx(expected, abs=1e-15)


def test_holder_guards():
    with pytest.raises(PreconditionViolation):
        holder_exponent(ProblemParams(dim=3, p=2.0, gamma=2.0))  # gamma <= p
    # q <= dim/gamma starves the integrability arm
    with pytest.raises(PreconditionViolation):
        holder_exponent(ProblemParams(dim=9, p=2.0, gamma=4.0, q=2.0))


def test_threshold_guard_p_at_least_dim():
    with pytest.raises(PreconditionViolation):
        liouville_threshold(3, 3.0)
    with pytest.raises(PreconditionViolation):
        liouville_threshold(2, 2.5)


def test_params_validation():
    with pytest.raises(PreconditionViolation):
        ProblemParams(dim=1, p=2.0, gamma=3.0)
    with pytest.raises(PreconditionViolation):
        ProblemParams(dim=3, p=1.0, gamma=3.0)
    with pytest.raises(PreconditionViolation):
        ProblemParams(dim=3, p=2.0, gamma=1.0)  # gamma = p - 1
    with pytest.raises(PreconditionViolation):
        ProblemParams(dim=3, p=2.0, gamma=3.0, lam=-1.0)
    with pytest.raises(PreconditionViolation):
        ProblemParams(dim=3, p=2.0, gamma=3.0, q=0.5)
    non_finite = [
        {"dim": math.nan},
        {"dim": math.inf},
        {"dim": 2.5},
        {"dim": 2**53 + 1},  # no exact float
        {"dim": 10**400},  # past the float range
        {"p": math.inf, "gamma": math.inf},
        {"p": math.nan},
        {"gamma": math.inf},
        {"gamma": math.nan},
        {"q": -INFINITY},
    ]
    for bad in non_finite:
        with pytest.raises(PreconditionViolation):
            ProblemParams(**{"dim": 3, "p": 2.0, "gamma": 3.0, **bad})


# Every input that must be finite and positive, with a call that reads it:
# one rule, one message.
_POSITIVE = [
    ("c_h", lambda v: ProblemParams(dim=3, p=2.0, gamma=3.0, c_h=v)),
    ("nu", lambda v: ProblemParams(dim=3, p=2.0, gamma=3.0, nu=v)),
    ("c_h", lambda v: sharpness_profile(3, 2.0, 4.0, c_h=v)),
    ("c_h", lambda v: bump_profile_scale(3, 2.0, 1.8, v)),
    ("c_h", lambda v: liouville_classify_euclidean(3, 2.0, 4.0, c_h=v)),
    ("gamma", lambda v: gradient_energy(PowerProfile(1.0, 2.0), v, 0.5, 3)),
    ("R", lambda v: caccioppoli_audit(PowerProfile(1.0, 2.0), ProblemParams(3, 2.0, 4.0), v,
                                      [0.1, 0.2])),
    ("omega_radius", lambda v: morrey_norm(RadialPowerSource(1.0, 1.0), 1.0, 1.5, v)),
    ("t_start", lambda v: area_condition_test(PowerArea(1.0, 2.0), 2.0, 1.4, t_start=v,
                                              mode="numeric")),
    ("sigma_R", lambda v: sigma_lower_bound(v, ProblemParams(3, 2.0, 1.4), EuclideanArea(3), 1.0, 10.0)),
    ("R", lambda v: sigma_lower_bound(1.0, ProblemParams(3, 2.0, 1.4), EuclideanArea(3), v, 10.0)),
    ("amplitude", lambda v: PowerArea(v, 2.0)),
    ("amplitude", lambda v: ExponentialArea(v, 0.5)),
]

# Each number that may be 0 but must be finite and not negative.
_NONNEGATIVE = [
    ("lam", lambda v: ProblemParams(dim=3, p=2.0, gamma=3.0, lam=v)),
    ("newton_tol", lambda v: SolverConfig(newton_tol=v)),
    ("tol", lambda v: residual_scan(sharpness_profile(3, 2.0, 4.0), ProblemParams(3, 2.0, 4.0),
                                    [0.5], tol=v)),
    ("tolerance", lambda v: holder_fit(PowerProfile(1.0, 0.5), 1, (1e-3, 0.25), tolerance=v)),
]

# Each number that may take any sign but must be finite.
_FINITE = [
    ("amplitude", lambda v: RadialPowerSource(v, 1.0)),
    ("beta", lambda v: RadialPowerSource(1.0, v)),
    ("beta", lambda v: PowerArea(1.0, v)),
    ("kappa", lambda v: ExponentialArea(1.0, v)),
    ("bc_left", lambda v: solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(3, 2.0, 1.5),
                                                 RadialPowerSource(0.0, 0.0), (0.5, 1.0), v, 0.0)),
    ("bc_right", lambda v: solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(3, 2.0, 1.5),
                                                  RadialPowerSource(0.0, 0.0), (0.5, 1.0), 0.0, v)),
]

_NON_FINITE = [math.nan, math.inf, -math.inf,
               pytest.param(10**400, id="1e400"), pytest.param(-10**400, id="-1e400")]


@pytest.mark.parametrize("value", [0.0, -1.0, *_NON_FINITE])
@pytest.mark.parametrize("name, call", _POSITIVE,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_POSITIVE)])
def test_positive_inputs_share_one_refusal(name, call, value):
    with pytest.raises(PreconditionViolation) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be finite and positive, got {value}"


@pytest.mark.parametrize("value", [-1.0, *_NON_FINITE])
@pytest.mark.parametrize("name, call", _NONNEGATIVE, ids=[name for name, _ in _NONNEGATIVE])
def test_nonnegative_inputs_share_one_refusal(name, call, value):
    with pytest.raises(PreconditionViolation) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be finite and >= 0, got {value}"


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("name, call", _FINITE,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_FINITE)])
def test_finite_inputs_share_one_refusal(name, call, value):
    with pytest.raises(PreconditionViolation) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be finite, got {value}"


@pytest.mark.parametrize("name, call", _FINITE,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_FINITE)])
def test_finite_inputs_accept_either_sign(name, call):
    for value in (-0.5, 0.0, 0.5):
        call(value)


@pytest.mark.parametrize("name, call", _NONNEGATIVE, ids=[name for name, _ in _NONNEGATIVE])
def test_nonnegative_inputs_accept_zero(name, call):
    for zero in (0.0, -0.0, 0):
        call(zero)


_SAMPLED_SOURCE = SampledSource([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])


def _verify_sharpness(nodes):
    return cli._cmd_verify_sharpness(
        SimpleNamespace(dim=3, p=2.0, gamma=4.0, c_h=1.0, nodes=nodes, tol=1e-8))


def _verify_bump(nodes):
    return cli._cmd_verify_bump(
        SimpleNamespace(dim=3, p=2.0, gamma=1.8, c_h=1.0, nodes=nodes, grid_max=10.0))


# Each count, its least value and a call that reads it: one rule, one message.
_COUNTS = [
    ("n_nodes", 8, lambda v: SolverConfig(n_nodes=v)),
    ("pair_budget", 1, lambda v: holder_fit(PowerProfile(1.0, 0.5), v, (1e-3, 0.25))),
    ("seed", 0, lambda v: holder_fit(PowerProfile(1.0, 0.5), 1, (1e-3, 0.25), seed=v)),
    ("center_samples", 1, lambda v: morrey_norm(_SAMPLED_SOURCE, 1.0, 1.5, 1.0, center_samples=v)),
    ("n_radii", 0, lambda v: morrey_norm(_SAMPLED_SOURCE, 1.0, 1.5, 1.0, n_radii=v)),
    ("--nodes", 2, _verify_sharpness),
    ("--nodes", 2, _verify_bump),
]
_COUNT_IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(_COUNTS)]


@pytest.mark.parametrize("name, least, call", _COUNTS, ids=_COUNT_IDS)
def test_counts_share_one_refusal(name, least, call):
    for value in (math.nan, least + 0.5, least - 1):
        with pytest.raises(PreconditionViolation) as refused:
            call(value)
        assert str(refused.value) == f"{name} must be an integer >= {least}, got {value}"


@pytest.mark.parametrize("name, least, call", _COUNTS, ids=_COUNT_IDS)
def test_counts_accept_a_numpy_integer(name, least, call):
    call(np.int64(least))


def test_residual_scan_refuses_an_empty_grid():
    with pytest.raises(PreconditionViolation) as refused:
        residual_scan(sharpness_profile(3, 2.0, 4.0), ProblemParams(3, 2.0, 4.0), [])
    assert str(refused.value) == "grid size must be an integer >= 1, got 0"


def test_dims_end_at_two_to_the_53():
    assert ProblemParams(dim=2**53, p=2.0, gamma=3.0).dim == 2**53
    assert ParamGrid([2**53, 2**54], 2.0, 3.0).valid.tolist() == [True, False]


def test_infinite_q_gives_exact_zero():
    params = ProblemParams(dim=3, p=2.0, gamma=4.0, q=INFINITY)
    assert params.dim_over_q == 0
    assert isinstance(params.dim_over_q, int)


def test_tie_reports_both_branches():
    # 1 - 3/(2*3) = 1/2 and (3-2)/(3-1) = 1/2: the documented tie point.
    report = exponent_report(ProblemParams(dim=3, p=2.0, gamma=3.0, q=2.0))
    assert report.alpha == pytest.approx(0.5)
    assert report.alpha_branch is Branch.BOTH


def test_branch_tags():
    grad = exponent_report(ProblemParams(dim=3, p=2.0, gamma=4.0, q=INFINITY))
    assert grad.alpha_branch is Branch.GRADIENT
    assert grad.s_branch is Branch.GRADIENT
    integ = exponent_report(ProblemParams(dim=3, p=2.0, gamma=4.0, q=1.0))
    assert integ.alpha_branch is Branch.INTEGRABILITY
    assert integ.s_branch is Branch.INTEGRABILITY


def test_report_below_holder_range():
    report = exponent_report(ProblemParams(dim=3, p=2.0, gamma=1.8))
    assert report.alpha is None
    assert report.alpha_branch is None
    assert report.s == pytest.approx(1.8 / 0.8)
    assert report.gamma_star == pytest.approx(1.5)


@pytest.mark.parametrize(
    "dim,p,gamma,growth,liouville",
    [
        (3, 2.0, 4.0, GrowthRegime.SUPERNATURAL, LiouvilleRegime.SUPERCRITICAL),
        (3, 2.0, 1.2, GrowthRegime.SUBNATURAL, LiouvilleRegime.SUBCRITICAL),
        (3, 2.0, 1.5, GrowthRegime.SUBNATURAL, LiouvilleRegime.CRITICAL),
    ],
)
def test_classify_regime(dim, p, gamma, growth, liouville):
    regime = classify_regime(ProblemParams(dim=dim, p=p, gamma=gamma))
    assert regime.growth is growth
    assert regime.liouville is liouville


def test_rational_inputs_stay_exact():
    params = ProblemParams(dim=3, p=Fraction(2), gamma=Fraction(4), q=INFINITY)
    assert holder_exponent(params) == Fraction(2, 3)
    assert caccioppoli_exponent(params) == Fraction(4, 3)
    assert liouville_threshold(3, Fraction(2)) == Fraction(3, 2)


def test_threshold_between_p_minus_one_and_p():
    for dim in (2, 3, 4, 5, 8):
        for p in (1.2, 1.5, 2.0, 3.0, dim - 0.1):
            if not 1 < p < dim:
                continue
            star = liouville_threshold(dim, p)
            assert p - 1 < star < p


def test_threshold_monotone_in_p_and_dim():
    ps = [1.3, 1.8, 2.4, 3.1]
    stars = [liouville_threshold(5, p) for p in ps]
    assert all(a < b for a, b in zip(stars, stars[1:]))
    dims = [3, 4, 5, 9]
    stars = [liouville_threshold(d, 2.0) for d in dims]
    assert all(a > b for a, b in zip(stars, stars[1:]))


@given(
    dim=st.integers(min_value=2, max_value=9),
    p=st.floats(min_value=1.05, max_value=5.0),
    dgamma=st.floats(min_value=1e-3, max_value=10.0),
    q_inf=st.booleans(),
    q_raw=st.floats(min_value=0.0, max_value=50.0),
)
def test_alpha_equals_one_minus_s_over_gamma(dim, p, dgamma, q_inf, q_raw):
    """The two exponent formulas are one identity written twice."""
    gamma = p + dgamma
    if q_inf:
        q = INFINITY
    else:
        q = max(1.0, dim / gamma * (1.0 + 1e-6)) + q_raw
    params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
    alpha = holder_exponent(params)
    s = caccioppoli_exponent(params)
    assert 0 < alpha < 1
    assert abs(alpha - (1 - s / gamma)) <= 1e-12


def _point_fields(point):
    """One point's report and regime fields through ProblemParams, '' or nan
    where undefined."""
    try:
        params = ProblemParams(*point[:3], q=point[3])
    except PreconditionViolation:
        return (math.nan, math.nan, math.nan, "", "", "", "")
    rep = exponent_report(params)
    try:
        regime = classify_regime(params)
        regimes = (regime.growth.value, regime.liouville.value)
    except PreconditionViolation:
        regimes = ("", "")
    return (
        math.nan if rep.alpha is None else rep.alpha,
        rep.s,
        math.nan if rep.gamma_star is None else rep.gamma_star,
        rep.alpha_branch.value if rep.alpha_branch else "",
        rep.s_branch.value,
    ) + regimes


def _branch(integrability_arm, gradient_arm, value) -> str:
    if integrability_arm == gradient_arm:
        return "both"
    return "integrability" if value == integrability_arm else "gradient"


def _reference_fields(point):
    """The fields of ``_point_fields`` from the formula functions, each
    branch read off the two arms and each regime off gamma_star."""
    try:
        params = ProblemParams(*point[:3], q=point[3])
    except PreconditionViolation:
        return (math.nan, math.nan, math.nan, "", "", "", "")
    dim, p, gamma, dim_over_q = params.dim, params.p, params.gamma, params.dim_over_q
    s = caccioppoli_exponent(params)
    s_branch = _branch(dim_over_q, _energy_arm(p, gamma), s)
    try:
        alpha = holder_exponent(params)
        alpha_branch = _branch(1 - dim_over_q / gamma, _gradient_arm(p, gamma), alpha)
    except PreconditionViolation:
        alpha, alpha_branch = math.nan, ""
    try:
        star = liouville_threshold(dim, p)
    except PreconditionViolation:
        return (alpha, s, math.nan, alpha_branch, s_branch, "", "")
    growth = "supernatural" if gamma > p else "subnatural"
    liouville = (
        "subcritical" if gamma < star else "critical" if gamma == star else "supercritical"
    )
    return (alpha, s, star, alpha_branch, s_branch, growth, liouville)


def _rows(rows):
    return [tuple("nan" if x != x else x for x in row) for row in rows]


def test_reports_match_the_formula_functions():
    """A ParamGrid is valid where ProblemParams accepts the point, and its
    report and regime, like those of each ProblemParams, hold the formula
    functions' values, branches and regimes included."""
    inf, nan = math.inf, math.nan
    points = list(itertools.product(
        (1, 2, 2.5, 3, 5, inf, nan),
        (-inf, 1.0, 1.5, 2.0, 3.0, 7.0, inf, nan),
        (0.2, 0.5, 1.2, 1.5, 2.0, 3.0, 4.0, 9.0, inf, nan),
        (0.5, 1.0, 2.0, 2.25, inf, nan),  # q = 9/4 ties both arms at (3, 2, 4)
    ))
    grid = ParamGrid(*np.array(points).T)
    rep, regime = exponent_report(grid), classify_regime(grid)
    columns = (rep.alpha, rep.s, rep.gamma_star, rep.alpha_branch, rep.s_branch,
               regime.growth, regime.liouville)
    got = list(zip(*(column.tolist() for column in columns)))
    want = [_reference_fields(point) for point in points]
    assert _rows(got) == _rows(want)
    assert _rows(map(_point_fields, points)) == _rows(want)
    assert grid.valid.tolist() == [not math.isnan(row[1]) for row in want]
    assert {row[3] for row in got} == {"", "both", "gradient", "integrability"}
    assert {row[4] for row in got} == {"", "both", "gradient", "integrability"}
    assert {row[6] for row in got} == {"", "subcritical", "critical", "supercritical"}


def test_one_point_reports_are_python_floats():
    """The report bundle is float64 for any input; exactness is the formula
    functions' contract (test_rational_inputs_stay_exact)."""
    rep = exponent_report(ProblemParams(dim=3, p=Fraction(2), gamma=Fraction(4), q=Fraction(2)))
    assert (rep.alpha, rep.s, rep.gamma_star) == (0.625, 1.5, 1.5)
    assert all(type(x) is float for x in (rep.alpha, rep.s, rep.gamma_star))
    assert (rep.alpha_branch, rep.s_branch) == (Branch.INTEGRABILITY, Branch.INTEGRABILITY)
