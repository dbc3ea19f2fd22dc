"""Independent oracles that the tests compare the library against.

None of these is reached by the command line or by the acceptance
criteria, so they live with the tests and not in `bergerspec`.
"""

import math
from fractions import Fraction

from bergerspec.berger import Mode, _check_positive, _known_mode
from bergerspec.jacobi import EinsteinAmbient
from bergerspec.slices import SliceGeometry

ROUND_S4_AMBIENT = EinsteinAmbient(n=4, s=12.0, validity="constant-curvature", name="round S^4")


def enumerate_modes(k_max: int) -> list[Mode]:
    """All valid modes with k <= k_max, including (0, 0)."""
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max!r}")
    return [_known_mode(k, q) for k in range(k_max + 1) for q in range(k % 2, k + 1, 2)]


def mode_value(m: Mode, t: float) -> float:
    """Eigenvalue t*(A + B*t^{-3}) of mode m on g_B^t."""
    _check_positive(t, "squash parameter t")
    return t * (m.A + m.B * t ** -3)


def mode_multiplicity(m: Mode) -> int:
    """Multiplicity k+1 for q = 0, else 2(k+1), written out apart from `_total_multiplicity`."""
    return m.k + 1 if m.q == 0 else 2 * (m.k + 1)


def synthetic_slice(r: float) -> SliceGeometry:
    """Round sphere of latitude r in the round 4-sphere (f = sin^2 r, x = 1).

    This degenerates at r = 0 and pi like the Page family and has a fully
    known spectrum (the round 3-sphere of radius sin r), making it a
    machinery check that is independent of any coefficient transcription.
    """
    if not 0 < r < math.pi:
        raise ValueError(f"latitude must lie in (0, pi), got {r!r}")
    s = math.sin(r)
    return SliceGeometry(r=r, f=s * s, x=Fraction(1), ambient=ROUND_S4_AMBIENT)


def w2(geom: SliceGeometry) -> float:
    """The sigma_3^2 coefficient f / x of a slice."""
    return float(Fraction(geom.f) / geom.x)
