"""Desk-scale numerical laboratory for quasilinear elliptic inequalities
with power-growth gradient terms: exponent calculus, explicit radial
solutions and counterexamples, a radial BVP solver, energy/regularity
audits, and area-growth Liouville criteria.
"""

from . import errors, params, radial, solver, audit, liouville
from .errors import *
from .params import *
from .radial import *
from .solver import *
from .audit import *
from .liouville import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, params, radial, solver, audit, liouville) for name in module.__all__
]
