"""Independent high-precision reference implementation for the tests.

Everything here is computed with mpmath at 50 digits straight from the
model's defining expressions, deliberately sharing no code with the
package.  Tests compare package output against these references (or
against literals frozen from them).  The one exception is
``grid_argmax``, the full-grid form of the package's blocked grid oracle.
"""

import mpmath as mp
import numpy as np

import privopt

mp.mp.dps = 50


def _m(s):
    """Scenario fields as mpmath numbers."""
    return {
        "q": mp.mpf(s.q_star),
        "pstar": mp.mpf(s.p_star),
        "p": mp.mpf(s.price),
        "nu": mp.mpf(s.nu),
        "th": mp.mpf(s.theta),
        "aN": mp.mpf(s.alpha_n),
        "lN": mp.mpf(s.l_n),
        "pis": mp.mpf(s.pi_s),
        "pic": mp.mpf(s.pi_c_star),
    }


def coefficients(s):
    v = _m(s)
    a = (v["q"] * v["pstar"] * v["nu"] / 2) * (v["aN"] / v["lN"] ** v["nu"]) * (1 - v["p"] / v["pstar"]) ** 2
    b = (1 - v["pis"]) * v["pic"] * (v["th"] + 1) / v["lN"] ** v["th"]
    return a, b


def net_surplus(s, l):
    v = _m(s)
    l = mp.mpf(float(l))
    ratio = l / v["lN"]
    margin = max(mp.mpf(0), 1 - v["p"] / v["pstar"])
    cons = (v["pstar"] * v["q"] / 2) * (1 + v["aN"] * ratio ** v["nu"]) * margin**2
    loss = (v["pis"] + v["pic"] * (1 - v["pis"]) * ratio ** v["th"]) * l
    return cons - loss


def gain(s, l):
    """``net_surplus(s, l) - net_surplus(s, 0)`` without the constant term,
    so it keeps 50 digits where the gain is far below the surplus."""
    v = _m(s)
    l = mp.mpf(float(l))
    ratio = l / v["lN"]
    margin = max(mp.mpf(0), 1 - v["p"] / v["pstar"])
    benefit = (v["pstar"] * v["q"] / 2) * v["aN"] * ratio ** v["nu"] * margin**2
    return benefit - (v["pis"] + v["pic"] * (1 - v["pis"]) * ratio ** v["th"]) * l


def gradient(s, l):
    a, b = coefficients(s)
    v = _m(s)
    l = mp.mpf(float(l))
    return a * l ** (v["nu"] - 1) - v["pis"] - b * l ** v["th"]


def interior_root(s, guess):
    """Root of the decision equation near the guess (monotone regimes)."""
    return mp.findroot(lambda l: gradient(s, l), mp.mpf(guess), tol=mp.mpf("1e-30"))


def bracket(s):
    a, b = coefficients(s)
    v = _m(s)
    l_u = (a / b) ** (1 / (v["th"] + 1 - v["nu"]))
    l_l = (l_u ** (v["nu"] - 1) + v["pis"] / a) ** (1 / (v["nu"] - 1))
    return l_l, l_u


def secure_raw(s):
    v = _m(s)
    margin = max(mp.mpf(0), 1 - v["p"] / v["pstar"])
    k = (v["q"] * v["pstar"] * v["nu"] / 2) * v["aN"] / (v["pic"] * (v["th"] + 1)) * v["lN"] ** (v["th"] - v["nu"])
    return (k * margin**2) ** (1 / (v["th"] - v["nu"] + 1))


def saturation_price(s):
    v = _m(s)
    risk = v["pis"] + (1 - v["pis"]) * v["pic"] * (1 + v["th"])
    ratio = risk * 2 * v["lN"] / (v["aN"] * v["q"] * v["pstar"] * v["nu"])
    return v["pstar"] * (1 - mp.sqrt(ratio))


def sufficient_bound(s, margin):
    """The ``nu > 1`` uniqueness bound ``alpha_n (q* p* nu / 2) margin**2 /
    risk`` at the given ``margin``."""
    v = _m(s)
    risk = v["pis"] + (1 - v["pis"]) * v["pic"] * (1 + v["th"])
    return v["aN"] * (v["q"] * v["pstar"] * v["nu"] / 2) * mp.mpf(margin) ** 2 / risk


def nu_eq_1_band(s):
    v = _m(s)
    base = (v["q"] * v["pstar"] / 2) * (1 - v["p"] / v["pstar"]) ** 2 * v["aN"]
    lower = base / (v["pis"] + (1 - v["pis"]) * v["pic"] * (1 + v["th"]))
    upper = base / v["pis"] if v["pis"] > 0 else mp.inf
    return lower, upper


def region_bounds(s, q1, alpha):
    v = _m(s)
    q1 = mp.mpf(float(q1))
    alpha = mp.mpf(float(alpha))
    customer = q1 * mp.sqrt(1 + alpha)
    x = q1 / v["q"]
    disc = 1 - 4 * x * (1 - x) / (1 + alpha)
    root = mp.sqrt(disc)
    # the lower root from the product of the roots: half (1 - root) cancels
    # even at 50 digits once alpha passes ~1e48
    return customer, 2 * q1 * (1 - x) / (1 + root), (1 + alpha) * v["q"] / 2 * (1 + root)


def log_gradient(s):
    """The decision equation in ``t = log l``: ``log a + (nu-1) t - log(pi_s + b e^(theta t))``.

    It has the sign of the gradient at ``l = e^t``.
    """
    a, b = coefficients(s)
    v = _m(s)
    la = mp.log(a)
    return lambda t: la + (v["nu"] - 1) * t - mp.log(v["pis"] + b * mp.exp(v["th"] * t))


def log_root(s, t, reach=1e4):
    """Root of ``log_gradient(s)`` nearest to ``t``, or None within ``reach``.

    A bracket around ``t`` doubles until ``h`` changes sign across it, then
    bisection narrows it to 1e-40 relative.
    """
    h = log_gradient(s)
    t = mp.mpf(t)
    positive = h(t) > 0
    width = mp.mpf("1e-15") * (1 + abs(t))
    while width < reach:
        for end in (t - width, t + width):
            if (h(end) > 0) != positive:
                lo, hi = sorted((t, end))
                lo_positive = h(lo) > 0
                while hi - lo > mp.mpf("1e-40") * (1 + abs(lo)):
                    mid = (lo + hi) / 2
                    if (h(mid) > 0) == lo_positive:
                        lo = mid
                    else:
                        hi = mid
                return (lo + hi) / 2
        width *= 2
    return None


def log_slope(s, t):
    """``h'(t) = (nu-1) - theta * b e^(theta t) / (pi_s + b e^(theta t))``."""
    _, b = coefficients(s)
    v = _m(s)
    term = b * mp.exp(v["th"] * t)
    return (v["nu"] - 1) - v["th"] * term / (v["pis"] + term)


def grid_argmax(s, n):
    """Argmax of the package's ``net_surplus`` over the whole
    ``numpy.linspace(0, l_n, n)`` grid at once, clipped to ``l_n``: the
    reference the blocked ``oracle_grid_argmax`` must equal bit for bit.
    A subnormal step can round up and take linspace's last points past
    ``l_n``."""
    grid = np.minimum(np.linspace(0.0, s.l_n, int(n)), s.l_n)
    return float(grid[int(np.argmax(privopt.net_surplus(s, grid)))])
