"""Lattice nonlinear Schrodinger simulator and verification harness.

The package exports only `__version__`; import every other name from its
module (`dnls.lattice`, `dnls.hopping`, `dnls.dynamics`, `dnls.observables`,
`dnls.convergence`, `dnls.sampling`, `dnls.cli`), so importing one module
loads only it and what it imports.
"""

__version__ = "0.1.0"
