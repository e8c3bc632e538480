"""Plain-Python reference for the dead-count chain's closed forms.

One state at a time, with the builtin ``sum`` adding terms left to right,
exactly as the closed forms were first written. The array versions in
:mod:`sleepwatch.network` must reproduce these values bit for bit, so
``test_network`` compares them with ``==``. Nothing here is used by the
library.
"""

from __future__ import annotations


def move_prob(i: int, m: int) -> float:
    """Up (and down) probability out of state i: ((m-i)/m) * (i/m)."""
    return ((m - i) / m) * (i / m)


def stay_prob(i: int, m: int) -> float:
    healthy, dead = (m - i) / m, i / m
    return healthy * healthy + dead * dead


def beta(k: int, m: int) -> float:
    """Down/up ratio at state k, with beta(0) = 1."""
    return 1.0 if k == 0 else move_prob(k, m) / move_prob(k, m)


def death_probabilities(m: int) -> list[float]:
    """sum(beta(k) for k < i) / sum(beta(k) for k < m), for every i in 0..m."""
    betas = [beta(k, m) for k in range(m)]
    return [float(sum(betas[:i]) / sum(betas)) for i in range(m + 1)]


def expected_visits(i: int, j: int, m: int) -> float:
    return m * (m - i) / (m - j) if j <= i else m * i / j


def expected_death_time(i: int, m: int) -> float:
    if i == 0 or i == m:
        return 0.0
    below = sum(1.0 / (m - j) for j in range(1, i + 1))
    above = sum(1.0 / j for j in range(i + 1, m))
    return m * (m - i) * below + m * i * above
