"""The package's golden-section search and Brent root against scipy.optimize.

Both are ports of scipy's routines, so they must return scipy's floats
exactly; scipy is imported inside each test, as an oracle only.
"""

import math
import random

import numpy as np
import pytest

from dvcv_teleport import protocol
from dvcv_teleport.protocol import _brent_root, _golden_min

XTOLS = (1e-12, 2e-12, 1e-8)
CASES = 1200


def scipy_golden(func, xa, xb, xc, xtol, maxiter=5000):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(func, bracket=(xa, xb, xc), method="golden",
                          options={"xtol": xtol, "maxiter": maxiter})
    return res.x, res.fun


def scipy_brent(f, a, b, xtol):
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=xtol)


def root_family(seed):
    """Smooth functions with one sign change inside a bracket, one in six
    of them flat (a triple root), some with the bracket given high end first: each
    is s * g(w (x - r)) with g increasing through g(0) = 0."""
    rng = random.Random(seed)
    shapes = (
        lambda u, c: u * (1.0 + c * u * u),
        lambda u, c: math.tanh(u) + c * u ** 3,
        lambda u, c: math.expm1(u),
        lambda u, c: math.atan(u) + c * u,
        lambda u, c: u ** 3,
        lambda u, c: math.sin(u) + c * math.sinh(u),
    )
    for i in range(CASES):
        g = shapes[i % len(shapes)]
        r = rng.uniform(-3.0, 3.0)
        s = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-2.0, 2.0)
        w = 10 ** rng.uniform(-1.0, 0.2)
        c = rng.uniform(0.0, 2.0)
        a, b = r - rng.uniform(1e-3, 1.5), r + rng.uniform(1e-3, 1.5)
        if rng.random() < 0.25:
            a, b = b, a

        def f(x, g=g, r=r, s=s, w=w, c=c):
            return s * g(w * (x - r), c)
        yield f, a, b, XTOLS[i % len(XTOLS)]


def minimum_family(seed):
    """Smooth functions with one minimum inside a 3-point bracket, some of
    them with the bracket given high end first."""
    rng = random.Random(seed)
    shapes = (
        lambda m, s, c: lambda x: s * (x - m) ** 2 + c * (x - m) ** 4,
        lambda m, s, c: lambda x: math.cosh(s * (x - m)) + c,
        lambda m, s, c: lambda x: -math.exp(-s * (x - m) ** 2) * (1.0 + c),
        lambda m, s, c: lambda x: math.log1p(s * (x - m) ** 2) - c,
        lambda m, s, c: lambda x: s * (x - m) ** 4,
    )
    for i in range(CASES):
        m = rng.uniform(-3.0, 3.0)
        s = 10 ** rng.uniform(-1.0, 2.0)
        c = rng.uniform(0.0, 2.0)
        lo, hi = rng.uniform(1e-2, 1.5), rng.uniform(1e-2, 1.5)
        xb = m + rng.uniform(-0.5, 0.5) * min(lo, hi)
        xa, xc = m - lo, m + hi
        if rng.random() < 0.25:
            xa, xc = xc, xa
        yield shapes[i % len(shapes)](m, s, c), xa, xb, xc, XTOLS[i % len(XTOLS)]


def test_verify_operating_points_are_scipys():
    for l, k in ((0, 1), (1, 2)):
        grid = np.linspace(0.05, 1.5, 61)
        i = int(np.argmax([protocol.direct_success_probability(l, k, a)
                           for a in grid]))
        x, fx = scipy_golden(
            lambda a: -protocol.direct_success_probability(l, k, a),
            grid[i - 1], grid[i], grid[i + 1], 1e-8)
        assert protocol.maximize_direct_success(l, k) == (float(x), float(-fx))
    for args, lo, hi in (((1, 2, 1, 2, -1.0), 0.45, 0.56),
                         ((0, 1, 0, 1, -1.0), 0.5, 0.9)):
        def g(a):
            return protocol.amp_factor_dual(*args[:4], a) - args[4]
        want = scipy_brent(g, lo, hi, 1e-12)
        assert protocol.solve_amp_factor_alpha(*args, lo, hi) == want


def outcome(call):
    """What ``call()`` returns, or the class of the error it raises."""
    try:
        return call()
    except (ValueError, RuntimeError) as e:
        return type(e)


def test_brent_root_is_scipys_on_a_seeded_family():
    # most triple roots use up the 100 iterations in both
    found = []
    for f, a, b, xtol in root_family(11):
        got = outcome(lambda: _brent_root(f, a, b, xtol))
        assert got == outcome(lambda: scipy_brent(f, a, b, xtol))
        found.append(got)
    assert sum(isinstance(x, float) for x in found) >= 1000


def test_golden_min_is_scipys_on_a_seeded_family():
    for f, xa, xb, xc, xtol in minimum_family(12):
        assert (_golden_min(f, xa, xb, xc, xtol)
                == scipy_golden(f, xa, xb, xc, xtol))


def test_golden_min_out_of_iterations_is_scipys(monkeypatch):
    def f(x):
        return (x - 0.3) ** 2
    for maxiter in (0, 1, 3, 10):
        monkeypatch.setattr(protocol, "_GOLDEN_MAXITER", maxiter)
        assert (_golden_min(f, -1.0, 0.1, 2.0, 1e-12)
                == scipy_golden(f, -1.0, 0.1, 2.0, 1e-12, maxiter))


def test_error_paths_match_scipy(monkeypatch):
    from scipy.optimize import brentq, minimize_scalar

    def square(x):
        return x * x

    # same-sign ends
    for solver in (brentq, _brent_root):
        with pytest.raises(ValueError):
            solver(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    # unordered bracket, and a middle point that is not the lowest
    for bracket in ((0.0, 2.0, 1.0), (0.5, 1.0, 2.0), (-1.0, 0.5, 0.5)):
        with pytest.raises(ValueError):
            minimize_scalar(square, bracket=bracket, method="golden")
        with pytest.raises(ValueError):
            _golden_min(square, *bracket, xtol=1e-8)
    # out of iterations
    with pytest.raises(RuntimeError):
        brentq(lambda x: x ** 3 - 0.2, -1.0, 4.0, xtol=1e-12, maxiter=3)
    with monkeypatch.context() as m:
        m.setattr(protocol, "_BRENT_MAXITER", 3)
        with pytest.raises(RuntimeError):
            _brent_root(lambda x: x ** 3 - 0.2, -1.0, 4.0, xtol=1e-12)
    # a NaN value stops both
    for solver in (brentq, _brent_root):
        with pytest.raises(ValueError):
            solver(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, xtol=1e-12)
    # a root exactly at an end is that end
    for a, b in ((1.0, 3.0), (-2.0, 1.0), (3.0, 1.0)):
        got = _brent_root(lambda x: x - 1.0, a, b, xtol=1e-12)
        assert got == 1.0 == brentq(lambda x: x - 1.0, a, b, xtol=1e-12)


def test_peak_outside_the_scan_is_named():
    with pytest.raises(ValueError, match=r"\(0,7\).*outside \[0\.05, 1\.5\]"):
        protocol.maximize_direct_success(0, 7)
