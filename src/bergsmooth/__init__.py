"""Numerical laboratory for smoothing properties of the Bergman projection
on model domains (disk, annulus, ball in C^2).

The public surface is the submodules (`bergsmooth.flow`, `bergsmooth.scenarios`,
...); the package root exports only the version."""

__version__ = "0.1.0"
