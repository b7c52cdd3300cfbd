"""Symmetry groups, sign characters, and equivariant variational solvers.

Subpackages cover the finite symmetry-group family and its matrix actions
(:mod:`cknsym.symmetry`), admissible-configuration enumeration
(:mod:`cknsym.enumeration`), the binary-word closure calculus
(:mod:`cknsym.codes`), ball grids and lattice actions (:mod:`cknsym.grid`,
:mod:`cknsym.lattice`), the weighted variational solver
(:mod:`cknsym.variational`, :mod:`cknsym.orbits`), and the command-line
interface (:mod:`cknsym.cli`).
"""

__version__ = "0.1.0"
