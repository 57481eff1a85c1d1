"""Free-fermion hydrodynamics laboratory.

A desk-scale numerical lab pairing the exactly solvable microscopic side
(quasi-free fermions on a periodic 1D lattice, local Gibbs states, exact
spectral dynamics) with the macroscopic side (compressible Euler equations
closed by the quantum free-Fermi-gas pressure), plus the thermodynamic,
large-deviation, and entropy machinery needed to verify the identities
connecting the two.

Subpackages / modules
---------------------
eos      : free Fermi gas thermodynamics (pressure, dual densities, inversion)
ldp      : Legendre entropy and large-deviation rate functions
entropy  : dense-matrix entropy inequalities and the exact Fock-space oracle
micro    : quasi-free lattice states, exact evolution, currents, coarse-graining
euler    : finite-volume solver for the 1D Euler system with the quantum closure
harness  : experiment orchestration, invariant checks, and the CLI

`import fermi_euler` loads eos, euler, ldp and micro, which need numpy
alone: `scipy.linalg` is imported by the functions that use it, micro's
dense Gibbs builds and spectra, and micro's Fermi factors are numpy's
(`eos.fermi`).  `entropy`, the `scipy.linalg` dense oracle that the checks
and tests use, is not loaded here: import it by name,
`from fermi_euler import entropy`.
"""

__version__ = "0.1.0"

from . import eos, euler, ldp, micro  # noqa: F401
