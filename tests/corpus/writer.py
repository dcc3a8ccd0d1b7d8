"""A seeded differential of the certificate writer against json.

``cli._encode(x)`` must give the bytes of ``json.dumps(x, indent=2)`` for every
tree x that json writes.  Its table path reads the output of json's C encoder,
which may differ between Pythons, so this draws random trees of scalars, lists,
tuples and dicts, a third of them tables (lists or tuples of rows of scalars),
with strings that hold the table path's separators, and compares the two.

``PYTHONPATH=src:tests python -m corpus.writer [SEED [COUNT]]`` compares COUNT
trees (default 20,000) drawn from SEED (default 0) and names the first that
differs.  Stdlib only, for the floor.
"""

import json
import random
import sys

from chnoids import cli

FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1)
PIECES = ("],", "},", ",", '"', "\\", "\x00", "\x1f", "\x7f", "\n", "[", "{", "]", "}", " ", "a", "é",
          "€", "\U0001f600")


def text(rng: random.Random) -> str:
    return "".join(rng.choices(PIECES, k=rng.randrange(5)))


def scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.randrange(-10**6, 10**6)
    if kind == 2:
        return rng.choice((-1, 1)) * rng.randrange(2**64, 2**200)
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:
        return rng.uniform(-1e300, 1e300) * rng.random() ** 40
    return text(rng)


def row(rng: random.Random, kind: str):
    """A row of at most 4 scalars: a list, a tuple or a dict."""
    size = rng.randrange(5)
    if kind == "dict":
        return {scalar(rng): scalar(rng) for _ in range(size)}
    cells = [scalar(rng) for _ in range(size)]
    return tuple(cells) if kind == "tuple" else cells


def table(rng: random.Random):
    """0 to 40 rows: every row a list or tuple, every row a dict, or mixed rows."""
    kinds = rng.choice((("list",), ("list", "tuple"), ("dict",), ("list", "tuple", "dict")))
    rows = [row(rng, rng.choice(kinds)) for _ in range(rng.choice((0, 1, 2, 3, 40, rng.randrange(41))))]
    return tuple(rows) if rng.random() < 0.3 else rows


def tree(rng: random.Random, depth: int):
    """A scalar or a table at depth 0, else a list, tuple or dict of trees."""
    if depth == 0 or rng.random() < 0.2:
        return table(rng) if rng.random() < 0.5 else scalar(rng)
    items = [tree(rng, depth - 1) for _ in range(rng.randrange(5))]
    kind = rng.randrange(3)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return {scalar(rng): item for item in items}


def main(argv: list[str]) -> int:
    seed, count = map(int, argv + ["0", "20000"][len(argv):])
    rng = random.Random(seed)
    for i in range(count):
        x = tree(rng, rng.randrange(4))
        if cli._encode(x) != json.dumps(x, indent=2):
            print(f"FAIL tree {i} of seed {seed}: {x!r}")
            return 1
    print(f"{count} trees of seed {seed} written as json.dumps(x, indent=2) writes them")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
