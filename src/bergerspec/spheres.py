"""Exact Laplace-Beltrami spectrum of the unit round p-sphere.

Eigenvalues are k(k+p-1) for integer degree k >= 0, with multiplicity
C(k+p, p) - C(k+p-2, p), the dimension of degree-k spherical harmonics.
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb

from .berger import _check_count, _Record


class SphereSpectrumEntry(_Record):
    _fields = ("degree", "eigenvalue", "multiplicity")

    def __init__(self, degree: int, eigenvalue: int, multiplicity: int) -> None:
        self.__dict__.update(degree=degree, eigenvalue=eigenvalue, multiplicity=multiplicity)


def _check_degree(k: int) -> None:
    if type(k) is not int or k < 0:  # a bool is not a degree
        raise ValueError(f"harmonic degree must be a non-negative integer, got {k!r}")


def sphere_eigenvalue(k: int, p: int) -> int:
    """Eigenvalue k(k+p-1) of the degree-k harmonics on the unit p-sphere."""
    _check_degree(k)
    _check_count(p, "sphere dimension")
    return k * (k + p - 1)


def sphere_multiplicity(k: int, p: int) -> int:
    """Dimension of the degree-k harmonic eigenspace on the p-sphere.

    The count is C(k+p, p) - C(k+p-2, p): homogeneous degree-k polynomials
    in p+1 variables minus the image of multiplication by |x|^2.
    """
    _check_degree(k)
    _check_count(p, "sphere dimension")
    lower = comb(k + p - 2, p) if k + p - 2 >= 0 else 0
    return comb(k + p, p) - lower


def sphere_spectrum(p: int, k_max: int) -> list[SphereSpectrumEntry]:
    """Entries for degrees 0..k_max, ascending in eigenvalue."""
    _check_count(p, "sphere dimension")
    _check_degree(k_max)
    return [
        SphereSpectrumEntry(k, sphere_eigenvalue(k, p), sphere_multiplicity(k, p))
        for k in range(k_max + 1)
    ]
