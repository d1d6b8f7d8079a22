"""Test functions closed under the order-lowering operator L, beside the
package's `PolyGauss`: the oracles that the pullback and sphere-average
tests pair against, and the sphere-area closed form they compare with."""
import math
from typing import Callable

import numpy as np


class RadialPower:
    """``coeff |theta|^a``; L maps it to ``coeff (n-2+a)/2 |theta|^(a-2)``."""

    def __init__(self, n: int, a: float, coeff: float = 1.0):
        self.n = int(n)
        self.a = float(a)
        self.coeff = float(coeff)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return self.coeff * r2 ** (self.a / 2.0)

    def sphere_average(self, r, nodes: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """``sum_k weights_k phi(r nodes_k)``: the rule's area times coeff r^a."""
        r = np.asarray(r, dtype=float)
        return self.coeff * r ** self.a * float(np.sum(weights))

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

    def sphere_average(self, r, nodes: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
        """``sum_k weights_k phi(r nodes_k)`` at radii r, by sampling."""
        r = np.asarray(r, dtype=float)
        return self(r[..., None, None] * nodes) @ weights

    def apply_L(self) -> "CustomTest":
        if self._l_image is None:
            raise ValueError("no derivative closure supplied for L")
        return self._l_image


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
