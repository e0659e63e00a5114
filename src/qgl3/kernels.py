"""Kernels backing the character arithmetic hot loops.

charring calls them through this module (kernels.convolve), so a wrapper
bound here, e.g. by a tracer, sees every call.
"""

from itertools import repeat

BACKEND = "python"


def convolve(a, b):
    """Convolution product of two sparse exponent->coefficient dicts."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    b_items = list(b.items())
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b_items:
            key = (xa + xb, ya + yb)
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def ssyt_weight_counts(p, q):
    """Weight multiplicities of the two-row shape (p, q) in three letters,
    by counting Gelfand-Tsetlin patterns.

    A pattern has top row (p, q, 0), middle row (x, y) with
    p >= x >= q >= y >= 0 and bottom entry m1 with x >= m1 >= y; it has
    content (m1, m2, m3) with m1 + m2 = x + y = s.  So the multiplicity of
    that content is the number of integers x with
    max(q, m1, s - q, s - m1) <= x <= min(p, s), and the content projects
    to the SL3 weight (m1 - m2, m2 - m3) = (2*m1 - s, 2*s - m1 - p - q).

    The contents with a pattern are q <= s <= p + q and
    s - min(p, s) <= m1 <= min(p, s), each with multiplicity at least 1.
    On each row s the count is piecewise linear in m1: it rises by one per
    step while s - m1 is the largest lower bound on x, is flat while
    max(q, s - q) is, and falls by one per step while m1 is.  Each piece
    goes into the dict as one run of keys and counts, so there is no step
    per tableau and no Python step per weight.
    """
    n = p + q
    out = {}
    for s in range(q, n + 1):
        hi = min(p, s)
        base = max(q, s - q)
        lo = s - hi
        cut = max(lo, s - base)
        end = min(base, hi)
        _add_run(out, n, s, lo, cut, range(hi + 1 - s + lo, hi + 1 - s + cut))
        _add_run(out, n, s, cut, end + 1, repeat(hi + 1 - base))
        _add_run(out, n, s, end + 1, hi + 1, range(hi - end, 0, -1))
    return out


def _add_run(out, n, s, first, stop, counts):
    """Store counts at the weights (2*m1 - s, 2*s - n - m1), m1 in [first, stop)."""
    keys = zip(range(2 * first - s, 2 * stop - s, 2), range(2 * s - n - first, 2 * s - n - stop, -1))
    out.update(zip(keys, counts))
