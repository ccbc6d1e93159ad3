"""Closed-form states of two Coulomb-interacting particles in a planar trap.

The relative-motion radial equation closes into Gaussian-times-polynomial
eigenstates whenever the trap frequency sits on a quantization branch; the
package finds those branches exactly, builds the states, and derives the
measurable consequences: single-particle densities by center-of-mass
convolution, position-space information entropies, and the mapping onto the
quasi-exactly-solvable sextic oscillator with Rayleigh-Ritz levels for
energies outside the polynomial sector.
"""

from . import hooke, integrate, observables, qes, verify
from .hooke import *
from .integrate import *
from .observables import *
from .qes import *
from .verify import *

__version__ = "0.1.0"

__all__ = hooke.__all__ + integrate.__all__ + observables.__all__ + qes.__all__ + verify.__all__
