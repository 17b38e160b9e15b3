"""orjson reads every JSON number to the double json reads.

``cli._read`` parses a file its byte proof passes (``cli._proven``) with
``orjson.loads`` and everything else with ``json.load``. The two must agree
bit for bit on every number a state or basis file can hold, once converted
as the loaders convert them (one ``np.array(..., dtype=float)``). The sweep
below pins that for the installed orjson, so a release that rounds
differently fails here.
"""

import functools
import json
import random
from decimal import Decimal, localcontext

import numpy as np
import orjson

SEED = 20110503


def _finite(x: np.ndarray) -> list:
    return x[np.isfinite(x)].tolist()


def _decimal(rng: random.Random) -> str:
    """1-30 significant digits with a point anywhere and an exponent in -340..307."""
    n = rng.randint(1, 30)
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))
    point = rng.randint(1, n)
    text = digits[:point] + ("." + digits[point:] if point < n else "")
    if rng.random() < 0.5:
        text = "0." + digits
    exponent = rng.randint(-340, 307)
    mark = rng.choice(["e", "E", "e+", "e-"] if exponent >= 0 else ["e", "E"])
    return rng.choice(["", "-"]) + text + mark + str(abs(exponent) if mark == "e-" else exponent)


def _midpoint(x: float) -> str:
    """The exact decimal halfway between x and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200  # a double's exact decimal has at most 767 significant digits
        return str((Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2)


@functools.cache
def sweep(seed: int, n: int) -> list:
    """About 4.4n tokens: reprs of random doubles and of subnormals, decimal strings,
    midpoints between adjacent doubles, integers of up to 29 digits, and zeros."""
    gen = np.random.default_rng(seed)
    rng = random.Random(seed)
    bits = gen.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
    doubles = _finite(bits.view(np.float64))
    subnormal_bits = gen.integers(0, 2**52, size=n // 4, dtype=np.uint64)
    subnormal_bits |= gen.integers(0, 2, size=n // 4, dtype=np.uint64) << np.uint64(63)
    subnormals = subnormal_bits.view(np.float64).tolist()
    tokens = list(map(repr, doubles + subnormals))

    tokens += [_decimal(rng) for _ in range(2 * n)]
    # json reads a number past a double as inf; orjson refuses the whole document
    tokens = [t for t in tokens if np.isfinite(float(t))]

    ends = [abs(x) for x in doubles[: n // 4] + subnormals[: n // 8]]
    ends += [2.0**e - 2.0 ** (e - 53) for e in range(-1021, 1024)]  # below each power of two
    ends += [0.0, 5e-324, 2.0**-1022 - 5e-324]  # zero, and across the subnormal boundary
    tokens += [_midpoint(x) for x in ends if x < 1.7976931348623157e308]

    for _ in range(n // 2):
        digits = rng.randint(1, 29)
        tokens.append(str(rng.choice([1, -1]) * rng.randrange(10 ** (digits - 1), 10**digits)))
    tokens += ["0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0.000", "-0e400"]
    rng.shuffle(tokens)
    return tokens


def mismatches(tokens: list) -> list:
    """The tokens whose doubles differ between orjson and json, with both bit patterns."""
    text = "[" + ",".join(tokens) + "]"
    fast = np.array(orjson.loads(text.encode()), dtype=float).view(np.uint64)
    slow = np.array(json.loads(text), dtype=float).view(np.uint64)
    return [(tokens[i], hex(fast[i]), hex(slow[i])) for i in np.flatnonzero(fast != slow)[:10]]


def test_sweep_has_every_kind_of_token():
    tokens = sweep(SEED, 12_000)
    assert 45_000 <= len(tokens) <= 60_000
    assert any("E" in t for t in tokens) and any("e-3" in t for t in tokens)
    assert any(len(t) > 700 for t in tokens)  # the exact midpoints of subnormals
    assert {"-0", "-0.0"} <= set(tokens)


def test_orjson_reads_every_number_bit_for_bit_as_json():
    assert mismatches(sweep(SEED, 12_000)) == []

