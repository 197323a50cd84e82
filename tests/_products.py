"""The generalized falling factorial in x, a reference for the triangle rows,
the integral oracles and the command line's triangle output.

It expands the product on plain coefficient lists, one linear factor at a
time, and shares no loop with ``Series.mul_linear`` or the package's
integral oracles.
"""

from qwhitney.poly import ONE, Q, R, ZERO
from qwhitney.series import Series


def falling_factorial_x(m: int) -> Series:
    """(x - r | q)_m = (x - r) * (x - r - q) * ... * (x - r - (m-1)q), of order m."""
    coeffs = [ONE]  # of x^0..x^j after j factors
    for j in range(m):
        c = -(R + Q.scale(j))
        coeffs = [
            (coeffs[i - 1] if i else ZERO) + (c * coeffs[i] if i <= j else ZERO) for i in range(j + 2)
        ]
    return Series(m, coeffs)
