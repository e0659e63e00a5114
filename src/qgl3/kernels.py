"""Kernels backing the character arithmetic hot loops.

They work on plain int pairs (a, b) and build no Weight.  charring calls
them through this module (kernels.convolve), so a wrapper bound here, e.g.
by a tracer, sees every call.

The one memo here is _key_lines, the weight keys of ssyt_weight_counts and
of charring.divide_by_weyl_denominator: one shared tuple per weight, so a
character built again over the same weights, by either route, builds no new
key.  It holds one line per value of h = x + 2y, the keys (h - 2y, y) for
the longest range of y some call read on it, so it holds no key outside the
hull of the weights built.
"""

from itertools import chain, repeat

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


def brauer_klimyk(weights, heads, scale):
    """Brauer-Klimyk sum over heads (h, c) of c * sum over kappa of
    m(kappa) * euler(h + scale*kappa), for weights = {kappa: m(kappa)}, as
    {(a, b): int} in the basis of induced characters, zero coefficients
    dropped.

    euler(nu) is the induced character of the dot-dominantization of nu,
    signed by its parity, and zero for a singular nu.  In GL3 coordinates
    nu + rho is (a+b+2, b+1, 0): it is singular when two entries tie, and
    sorting the entries decreasingly, one sign flip per transposition,
    gives the dominant weight (x - y - 1, y - z - 1).  Each kappa is scaled
    to its GL3 offset (scale*(ka+kb), scale*kb) once per call: chi_l_weyl
    passes l, a Frobenius twist, and tensor_multiplicity 1.
    """
    offsets = [(scale * (ka + kb), scale * kb, m) for (ka, kb), m in weights.items()]
    out = {}
    for (ha, hb), c in heads:
        hx, hy = ha + hb + 2, hb + 1
        for dx, dy, m in offsets:
            x, y = hx + dx, hy + dy
            if x == y or x == 0 or y == 0:
                continue
            s = c * m
            z = 0
            # three-element sorting network; each swap is one transposition
            if x < y:
                x, y, s = y, x, -s
            if y < 0:
                y, z, s = 0, y, -s
                if x < 0:
                    x, y, s = 0, x, -s
            key = (x - y - 1, y - z - 1)
            out[key] = out.get(key, 0) + s
    # the filtering pass runs only when it has work
    if 0 in out.values():
        out = {w: c for w, c in out.items() if c}
    return out


# h = x + 2y -> (y0, keys) with keys[i] = (h - 2*(y0 - i), y0 - i) for y from
# y0 down to h - y0: the keys of one alpha1-line, in the order
# ssyt_weight_counts writes them.  The reflection s1 maps the line to itself
# by y -> h - y, so each row of a W-invariant character on it is a range
# centred like this one, and a line is rebuilt only for a longer row.
_key_lines: dict[int, tuple[int, list[tuple[int, int]]]] = {}


def key_line(h, top):
    """The line (y0, keys) of _key_lines at h with y0 >= top, the one growth
    rule of both its readers: the keys of y in [lo, hi] need max(hi, h - lo)."""
    line = _key_lines.get(h)
    if line is None or line[0] < top:
        line = _key_lines[h] = (top, [(h - 2 * y, y) for y in range(top, h - top - 1, -1)])
    return line


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
    goes into the dict as one run of counts, and each row as one
    dict.update of the chained runs, so there is no step per tableau and no
    Python step per weight.  The weights of row s lie on the line
    x + 2y = 3s - 2(p + q), and their keys are one slice of its line in
    _key_lines.
    """
    n = p + q
    out = {}
    for s in range(q, n + 1):
        # min and max written out: a builtin call per bound costs more
        hi = p if p < s else s
        base = q if q > s - q else s - q
        lo = s - hi
        cut = s - base if s - base > lo else lo
        end = base if base < hi else hi
        # the weights (2*m1 - s, 2*s - n - m1) for m1 = lo..hi, on the line
        # h = 3*s - 2*n with y from top down to h - top, and their counts on
        # the rising piece [lo, cut), the flat one [cut, end] and the falling
        # one (end, hi]; lo <= cut <= end + 1 <= hi + 1
        h = 3 * s - 2 * n
        top = 2 * s - n - lo
        y0, keys = key_line(h, top)
        counts = chain(
            range(hi + 1 - s + lo, hi + 1 - s + cut),
            repeat(hi + 1 - base, end + 1 - cut),
            range(hi - end, 0, -1),
        )
        out.update(zip(keys[y0 - top:y0 + top - h + 1], counts))
    return out
