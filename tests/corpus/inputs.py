"""The generated inputs of the certificate corpus, from seeded generators
where an input is too large to commit (323 KB for 5,000 weights)."""

import math
import random
from fractions import Fraction

from chnoids.exactnum import GQ, GaussianRational

BIG = "9" * 5000  # past the interpreter's int-to-str limit of 4300 digits


def nnoid_json(n: int) -> dict:
    """Valid n-noid data for any n >= 4: punctures 0..n-1, g1 = z0^(n-4),
    g2 = z1^(n-3) (no common zero) and q = z0^3 + z1^3 (nonzero at them)."""
    return {
        "punctures": [str(k) for k in range(n)],
        "residues": ["1"] * (n - 1) + [str(1 - n)],
        "g1": {"degree": n - 4, "coeffs": ["1"] + ["0"] * (n - 4)},
        "g2": {"degree": n - 3, "coeffs": ["0"] * (n - 3) + ["1"]},
        "q": {"degree": 3, "coeffs": ["1", "0", "0", "1"]},
    }


def literal_matrix(literal: str) -> dict:
    """A `ch2 classify` input with ``literal`` as its top-left entry."""
    return {"matrix": [[literal, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


def literal_weights(literal: str) -> dict:
    """A `stability check` input with ``literal`` in each of its four weight triples."""
    weight = {"triple": [literal, "1/3", "1/3"], "beta": "0", "gamma": "1/3"}
    return {"genus": 0, "n": 4, "d1": 0, "d2": 0, "weights": [weight] * 4}


def fractional_weights(*pair: int) -> dict:
    """A genus-2, n = 4, dmax = 25 stability input, its weights over 5, 9, 11
    and 13, some without beta or gamma, and (d1, d2) = pair if given."""
    weights = [
        {"triple": ["1/5", "2/5", "4/5"], "beta": "4/5", "gamma": "2/5"},
        {"triple": ["1/9", "1/9", "7/9"], "beta": "1/9", "gamma": "7/9"},
        {"triple": ["3/11", "6/11", "10/11"], "gamma": "6/11"},
        {"triple": ["0", "1/13", "12/13"], "beta": "12/13"},
    ]
    return {"genus": 2, "n": 4, "dmax": 25, "weights": weights, **dict(zip(("d1", "d2"), pair))}


def seeded_weights(config: dict, seed: int) -> dict:
    """config with config["n"] seeded weights of denominators 1..13."""
    rng = random.Random(seed)
    entries = []
    for _ in range(config["n"]):
        q = rng.randint(1, 13)
        triple = sorted(Fraction(rng.randrange(q), q) for _ in range(3))
        entries.append({"triple": [str(a) for a in triple], "beta": str(rng.choice(triple)),
                        "gamma": str(rng.choice(triple))})
    return dict(config, weights=entries)


def primes_above(lo: int, count: int) -> list[int]:
    """The first count primes above lo, by trial division."""
    primes, k = [], lo
    while len(primes) < count:
        k += 1
        if all(k % p for p in range(2, math.isqrt(k) + 1)):
            primes.append(k)
    return primes


def prime_weights(n: int) -> dict:
    """A stability check whose n weights have distinct prime denominators above
    10^6, so each puncture adds about 6 digits to the certificate's numbers."""
    return {"genus": 0, "n": n, "d1": 0, "d2": 0, "weights": [
        {"triple": ["0", "0", f"1/{p}"], "beta": f"1/{p}", "gamma": "0"}
        for p in primes_above(10**6, n)]}


def tall_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with seeded g1, g2 whose coefficient parts have ``digits`` digits."""
    rng = random.Random(seed)
    obj = nnoid_json(n)
    for form in ("g1", "g2"):
        size = obj[form]["degree"] + 1
        parts = [rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
                 for _ in range(2 * size)]
        obj[form]["coeffs"] = [str(GQ(x, y)) for x, y in zip(parts[::2], parts[1::2])]
    return obj


def shared_zero_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with g1 = (z0 - (3 + i) z1) h1 and g2 = (z0 - (3 + i) z1) h2,
    where h1, h2 are the seeded g1, g2 of tall_nnoid(n - 1, digits, seed)."""
    obj, tall, c = nnoid_json(n), tall_nnoid(n - 1, digits, seed), GQ(3, 1)
    for form in ("g1", "g2"):
        h = [GQ(0), *map(GaussianRational.parse, tall[form]["coeffs"]), GQ(0)]
        obj[form] = {"degree": tall[form]["degree"] + 1,
                     "coeffs": [str(h[k + 1] - c * h[k]) for k in range(len(h) - 1)]}
    return obj


def tall_punctures_nnoid(n: int, digits: int, seed: int) -> dict:
    """nnoid_json(n) with punctures k/d_k + (1/d'_k)i, k = 1..n, for seeded ``digits``-digit
    d_k and d'_k, and residues k/r_k with seeded 60-digit r_k, the last one making the sum zero."""
    rng = random.Random(seed)

    def draw(m):
        return rng.randrange(10 ** (m - 1), 10**m)

    obj = nnoid_json(n)
    obj["punctures"] = [str(GQ(Fraction(k, draw(digits)), Fraction(1, draw(digits))))
                        for k in range(1, n + 1)]
    residues = [Fraction(k, draw(60)) for k in range(1, n)]
    obj["residues"] = [str(GQ(r)) for r in [*residues, -sum(residues)]]
    return obj


def puncture_height_nnoid(n: int, height: int) -> dict:
    """nnoid_json(n) with its last puncture moved to 1/2^h, h chosen so that the punctures'
    summed height (the bit lengths of a, b and d over the punctures (a + bi)/d) is ``height``."""
    obj = nnoid_json(n)
    rest = sum(k.bit_length() + 1 for k in range(n - 1))
    obj["punctures"][-1] = f"1/{2 ** (height - rest - 2)}"
    return obj


def boost_matrix(t: float) -> dict:
    """The `ch2 classify` input that ``ch2.boost(t).to_json()`` writes."""
    from chnoids import ch2  # here, not at the top: a float matrix needs numpy, the floor has none

    return ch2.boost(t).to_json()
