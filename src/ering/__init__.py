"""Toolkit for engineering, analyzing and simulating two-qubit
polarization-entangled mixed states from an E-ring SPDC source.

The package root holds only ``__version__``; the API lives in the
submodules (``from ering.states import werner``), so ``import ering``
loads no numpy.
"""

__version__ = "0.1.0"
