"""The package surface: ``pdi_lab.__all__`` is assembled from the modules'
own export lists, so this test pins the public names in one place."""

import pdi_lab

PUBLIC = {
    "__version__",
    # errors
    "PdiLabError", "PreconditionViolation", "DegeneratePoint", "NoConvergence",
    "IllPosedBoundary", "DomainExceeded", "InsufficientScales", "NonIntegrable",
    "NoAdmissibleScale",
    # params
    "INFINITY", "ProblemParams", "Branch", "GrowthRegime", "LiouvilleRegime", "Regime",
    "ExponentReport", "holder_exponent", "caccioppoli_exponent", "unit_ball_volume",
    "liouville_threshold", "exponent_report", "classify_regime",
    # radial
    "RadialProfile", "PowerProfile", "BumpProfile", "SampledProfile", "OperatorKind",
    "PLaplacian", "MeanCurvature", "GeneralizedMeanCurvature", "ResidualReport",
    "radial_operator", "sharpness_profile", "nonconstant_entire_profile",
    "bump_profile_scale", "residual_scan",
    # solver
    "SourceTerm", "ZeroSource", "RadialPowerSource", "SampledSource", "SolverConfig",
    "DiscreteRadialSolution", "solve_radial_dirichlet", "solution_residual",
    # audit
    "gradient_energy", "CaccioppoliReport", "caccioppoli_audit", "HolderFitReport",
    "holder_fit", "MorreyNorm", "morrey_norm",
    # liouville
    "AreaProfile", "EuclideanArea", "PowerArea", "ExponentialArea", "SampledArea",
    "IntegralVerdict", "Verdict", "Mechanism", "LiouvilleVerdict", "SigmaBoundReport",
    "power_area_diverges", "area_condition_test", "sigma_lower_bound",
    "find_contradiction_radius", "liouville_classify_euclidean",
    "liouville_classify_manifold", "verify_euclidean_witness",
}


def test_public_names_are_pinned_and_listed_once():
    assert len(PUBLIC) == 69
    assert sorted(pdi_lab.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    namespace = {}
    exec("from pdi_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    for name in PUBLIC:
        assert getattr(pdi_lab, name) is namespace[name]
