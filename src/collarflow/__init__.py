"""Collar geometry, quadratic differentials and harmonic map flow on degenerating cylinders."""

__version__ = "0.1.0"
