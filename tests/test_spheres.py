import math

import pytest

from bergerspec.spheres import sphere_eigenvalue, sphere_multiplicity, sphere_spectrum


def closed_form_multiplicity(k, p):
    # (2k + p - 1) (k + p - 2)! / (k! (p - 1)!), the classical dimension count
    if k == 0:
        return 1
    num = (2 * k + p - 1) * math.factorial(k + p - 2)
    den = math.factorial(k) * math.factorial(p - 1)
    assert num % den == 0
    return num // den


def test_eigenvalue_formula():
    assert sphere_eigenvalue(0, 3) == 0
    assert sphere_eigenvalue(1, 3) == 3
    assert sphere_eigenvalue(2, 3) == 8
    assert sphere_eigenvalue(5, 2) == 30
    assert sphere_eigenvalue(7, 6) == 7 * 12


def test_multiplicities_against_closed_form():
    for p in range(1, 7):
        for k in range(0, 13):
            assert sphere_multiplicity(k, p) == closed_form_multiplicity(k, p)


def test_three_sphere_squares():
    for k in range(0, 13):
        assert sphere_multiplicity(k, 3) == (k + 1) ** 2


def test_circle_multiplicities():
    assert sphere_multiplicity(0, 1) == 1
    for k in range(1, 10):
        assert sphere_multiplicity(k, 1) == 2


def test_spectrum_rows():
    rows = [(e.degree, e.eigenvalue, e.multiplicity) for e in sphere_spectrum(3, 2)]
    assert rows == [(0, 0, 1), (1, 3, 4), (2, 8, 9)]


def test_spectrum_is_sorted_and_complete():
    entries = sphere_spectrum(5, 20)
    assert len(entries) == 21
    values = [e.eigenvalue for e in entries]
    assert values == sorted(values)
    assert all(e.multiplicity > 0 for e in entries)


def test_input_validation():
    with pytest.raises(ValueError):
        sphere_eigenvalue(1, 0)
    with pytest.raises(ValueError):
        sphere_eigenvalue(-1, 3)
    with pytest.raises(ValueError):
        sphere_multiplicity(2, -2)
    with pytest.raises(ValueError):
        sphere_spectrum(3, -1)
    for call in (lambda: sphere_eigenvalue(1, 0), lambda: sphere_multiplicity(1, 0), lambda: sphere_spectrum(0, 1)):
        with pytest.raises(ValueError, match=r"^sphere dimension must be a positive integer, got 0$"):
            call()
    # bool subclasses int: sphere_spectrum(True, 1) was the circle's spectrum
    for call in (lambda: sphere_spectrum(True, 1), lambda: sphere_multiplicity(1, True)):
        with pytest.raises(ValueError, match=r"^sphere dimension must be a positive integer, got True$"):
            call()
    for call, k in ((lambda: sphere_spectrum(3, True), True), (lambda: sphere_eigenvalue(False, 3), False)):
        with pytest.raises(ValueError, match=rf"^harmonic degree must be a non-negative integer, got {k}$"):
            call()
