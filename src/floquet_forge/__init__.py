"""Effective Hamiltonians of periodically shaken tight-binding lattices.

Build a lattice (preset or explicit bonds), attach a periodic shaking force,
and get: per-bond Fourier harmonics of the driven tunneling, the leading and
first-order effective tunneling matrices in two gauges, geometric selection
rules for the emergent two-step couplings, and exact one-period propagation
to verify the expansion order by order.

Each public name is declared once, in its module's ``__all__``; the package
exports the union of those lists.
"""

from . import drive, effective, errors, floquet, kpath, lattice, presets, selection
from .drive import *
from .effective import *
from .errors import *
from .floquet import *
from .kpath import *
from .lattice import *
from .presets import *
from .selection import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (drive, effective, errors, floquet, kpath, lattice, presets, selection)
    for name in module.__all__
]
