"""Independent reference definitions the engine is tested against.

These follow the README's definitions literally, with explicit scalar inner
products and norms instead of numpy reductions, so that a test comparing
``score_batch`` with them does not compare the code with itself.  The
checksum reference is the byte-at-a-time FNV-1a loop.
"""

import math

EPS_NORM = 1e-12


def inner(a, b) -> float:
    return sum(float(x) * float(y) for x, y in zip(a, b))


def norm(a) -> float:
    return math.sqrt(inner(a, a))


def geometry(f, W):
    """(||f||, [||w_i||], [cos phi_i], [l_i]); a cosine is 0 where f or w_i has norm < EPS_NORM."""
    fn = norm(f)
    weight_norms, cosines, logits = [], [], []
    for w in W:
        wn = norm(w)
        dot = inner(w, f)
        weight_norms.append(wn)
        cosines.append(dot / (fn * wn) if fn >= EPS_NORM and wn >= EPS_NORM else 0.0)
        logits.append(dot)
    return fn, weight_norms, cosines, logits


def covariate(f) -> float:
    """g = ||f||_2."""
    return norm(f)


def concept(f, W) -> float:
    """h = max_j ||w_j|| cos(phi_j) - mean_i ||w_i|| cos(phi_i), clamped at 0."""
    _, weight_norms, cosines, _ = geometry(f, W)
    t = [wn * c for wn, c in zip(weight_norms, cosines)]
    return max(0.0, max(t) - sum(t) / len(t))


def combined(f, W) -> float:
    """u = max_j l_j - mean_i l_i, clamped at 0."""
    logits = geometry(f, W)[3]
    return max(0.0, max(logits) - sum(logits) / len(logits))


def energy(logits) -> float:
    """log sum_i exp(l_i), shifted by the maximum."""
    top = max(logits)
    return top + math.log(sum(math.exp(x - top) for x in logits))


def msp(logits) -> float:
    """max_i softmax(l)_i."""
    top = max(logits)
    return 1.0 / sum(math.exp(x - top) for x in logits)


def fnv1a64_reference(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time: h = (h ^ byte) * prime mod 2**64."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
