"""Kernels backing the character arithmetic hot loops.

charring calls them through this module (kernels.convolve), so a wrapper
bound here, e.g. by a tracer, sees every call.
"""

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
    """Weight multiplicities of the two-row shape (p, q) in three letters.

    A semistandard tableau is determined by the letter counts of each row:
    row one is 1^x1 2^x2 3^x3 with x1+x2+x3 = p, row two is 2^y2 3^y3 with
    y2+y3 = q, subject to the column-strictness bounds x1 >= y2 and
    x1 + x2 >= q.  The content (m1, m2, m3) projects to the SL3 weight
    (m1 - m2, m2 - m3).
    """
    out = {}
    for x1 in range(p + 1):
        for x2 in range(p - x1 + 1):
            x3 = p - x1 - x2
            y2_hi = min(x1, q)
            if x1 + x2 < q:
                continue
            for y2 in range(y2_hi + 1):
                y3 = q - y2
                m1 = x1
                m2 = x2 + y2
                m3 = x3 + y3
                key = (m1 - m2, m2 - m3)
                out[key] = out.get(key, 0) + 1
    return out
