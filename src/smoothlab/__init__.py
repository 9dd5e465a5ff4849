"""Simulation laboratory for online algorithms against adaptive smooth adversaries.

The package is organized by process under study:

- ``domain``: finite domains, smooth distributions, mixture decomposition, RNG streams
- ``coupling``: adaptive-to-oblivious replica coupling and its diagnostics
- ``discrepancy``: online vector balancing (potential and self-balancing rules)
  together with lower-bound adversaries
- ``learning``: threshold-union classes, covers, Hedge, and regret accounting
- ``dispersion``: discontinuity dispersion counting and its tail bound
- ``harness`` / ``cli``: reproducible multi-trial experiment driver

The package namespace re-exports the domain types, the smoothness check and
the mixture decomposition.  Draws are made by the process loops themselves,
each from its trial's ``RngStream``.
"""

from smoothlab.domain import (
    FiniteDomain,
    MixtureOfUniforms,
    RngStream,
    SmoothPmf,
    UniformOnSet,
    decompose_smooth,
    validate_smooth,
)

__all__ = [
    "FiniteDomain",
    "MixtureOfUniforms",
    "RngStream",
    "SmoothPmf",
    "UniformOnSet",
    "decompose_smooth",
    "validate_smooth",
]

__version__ = "0.1.0"
