"""Desk-scale numerical laboratory for quasilinear elliptic inequalities
with power-growth gradient terms: exponent calculus, explicit radial
solutions and counterexamples, a radial BVP solver, energy/regularity
audits, and area-growth Liouville criteria.

The package loads lazily (PEP 562): ``import pdi_lab`` runs no submodule,
a submodule loads on first access, and a public name loads the modules up
to the one that exports it, so a solve never loads ``audit`` or
``liouville``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The modules whose ``__all__`` make up the package's, in dependency order,
# which is also the order a name is looked up in.
_EXPORTERS = ("errors", "params", "radial", "solver", "audit", "liouville")
_SUBMODULES = _EXPORTERS + ("quadrature", "cli")


def __getattr__(name):
    # Nothing is cached here, so a name rebound in its home module (as a
    # tracer does) reads the same through the package.
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__"] + [n for m in _EXPORTERS for n in __getattr__(m).__all__]
    if not name.startswith("_"):  # no private name is exported; a probe loads nothing
        for m in _EXPORTERS:
            module = __getattr__(m)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES) | set(__getattr__("__all__")))
