"""Test functions closed under the order-lowering operator L, beside the
package's `PolyGauss`: the oracles that the pullback and sphere-average
tests pair against, and the sphere-area closed form they compare with."""
import math
from typing import Callable

import numpy as np

from carlab.identities import sphere_nodes


class RadialPower:
    """``coeff |theta|^a``; L maps it to ``coeff (n-2+a)/2 |theta|^(a-2)``.

    It has `PolyGauss`'s moment interface with no Gaussian factor."""

    c = 0.0

    def __init__(self, n: int, a: float, coeff: float = 1.0):
        self.n = int(n)
        self.a = float(a)
        self.coeff = float(coeff)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return self.coeff * r2 ** (self.a / 2.0)

    def sphere_moments(self) -> dict[float, float]:
        """``{a: coeff |S^(n-1)|}``: the sphere integral at radius r is
        ``coeff |S^(n-1)| r^a``."""
        return {self.a: self.coeff * sphere_area(self.n)}

    def sphere_average(self, r) -> np.ndarray:
        """``int_{S^(n-1)} phi(r w) dsigma(w) = coeff |S^(n-1)| r^a``."""
        r = np.asarray(r, dtype=float)
        return self.coeff * r ** self.a * sphere_area(self.n)

    def apply_L(self) -> "RadialPower":
        return RadialPower(self.n, self.a - 2.0,
                           self.coeff * (self.n - 2 + self.a) / 2.0)


class CustomTest:
    """Arbitrary callable with a caller-supplied image under L (optional)."""

    def __init__(self, n: int, fn: Callable[[np.ndarray], np.ndarray],
                 l_image: "CustomTest | None" = None):
        self.n = int(n)
        self._fn = fn
        self._l_image = l_image

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(pts, dtype=float)))

    def sphere_average(self, r) -> np.ndarray:
        """``int_{S^(n-1)} phi(r w) dsigma(w)`` at radii r, by sampling the
        level-12 product rule of `sphere_nodes`."""
        nodes, weights = sphere_nodes(self.n, 12)
        r = np.asarray(r, dtype=float)
        return self(r[..., None, None] * nodes) @ weights

    def apply_L(self) -> "CustomTest":
        if self._l_image is None:
            raise ValueError("no derivative closure supplied for L")
        return self._l_image


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
