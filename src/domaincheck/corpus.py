"""Test corpora: named finite posets and exhaustive enumeration by size.

Removing a maximal point from a poset of size ``n`` leaves one of size
``n - 1``, so the generator extends each representative of size
``n - 1`` by a new maximal point over each of its down-sets.  One
canonical form, the least walk encoding over linear extensions
(:func:`_least_encoding`), deduplicates, orders and labels the results:
the classes come in the order, and with the labels, of a walk over every
transitive relation on positions in increasing encoding that keeps the
first of each class, which ``tests/test_corpus.py`` keeps as the oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import TooLarge, UnknownElement
from .oplog import logged
from .order import FinitePoset, bits, build_finite_poset
from .sidenat import truncate_side_nat

MAX_ENUMERATED_SIZE = 6

# The number of posets up to isomorphism of each size (OEIS A000112);
# ``test_unlabeled_counts`` checks the enumeration against it.
UNLABELED_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}


def _least_encoding(below: list[int]) -> int:
    """The least walk encoding of a strict order over its linear extensions.

    ``below[e]`` is the mask of elements strictly below ``e``.  Placing
    the elements at positions along a linear extension relates only
    smaller positions to larger ones; bit ``b`` of the encoding is set
    when the ``b``-th position pair ``(i, j)``, ``i < j`` in row order,
    is related.  Isomorphic orders have the same set of such relations,
    so the least is a canonical form.  Bits are only added as positions
    fill, so a partial encoding not below the best one cuts its branch.
    """
    n = len(below)
    bit = [[0] * n for _ in range(n)]
    for b, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        bit[i][j] = 1 << b
    where = [0] * n
    best = 1 << n * n  # above every encoding

    def place(pos: int, placed: int, code: int) -> None:
        nonlocal best
        if pos == n:
            best = code
            return
        for e in range(n):
            if placed >> e & 1 or below[e] & ~placed:
                continue
            step = code
            for k in bits(below[e]):
                step |= bit[where[k]][pos]
            if step < best:
                where[e] = pos
                place(pos + 1, placed | 1 << e, step)

    place(0, 0, 0)
    return best


@logged("corpus.generate")
@lru_cache(maxsize=None)
def generate_all_posets(n: int) -> tuple[FinitePoset, ...]:
    """Every poset on ``n`` elements up to isomorphism, in increasing
    order of its least walk encoding, named ``p{n}_{k}`` by that order
    and with element ``e{i}`` at position ``i`` of that encoding."""
    if n < 1:
        raise TooLarge("poset enumeration needs a positive size")
    if n > MAX_ENUMERATED_SIZE:
        raise TooLarge(f"poset enumeration is capped at {MAX_ENUMERATED_SIZE} elements")
    # The new point ``n - 1`` lies over the down-set outside ``upper``.
    codes = {0} if n == 1 else {
        _least_encoding([d & ~(1 << i) for i, d in enumerate(p.down)] + [p.universe & ~upper])
        for p in generate_all_posets(n - 1)
        for upper in p.upper_masks
    }
    elems = [f"e{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(
        build_finite_poset(
            f"p{n}_{k}", elems, [(f"e{i}", f"e{j}") for b, (i, j) in enumerate(pairs) if code >> b & 1]
        )
        for k, code in enumerate(sorted(codes))
    )


def named_posets() -> dict[str, FinitePoset]:
    chains = {
        f"chain_{k}": build_finite_poset(
            f"chain_{k}", [f"c{i}" for i in range(k)], [(f"c{i}", f"c{i + 1}") for i in range(k - 1)]
        )
        for k in range(1, 7)
    }
    antichains = {
        f"antichain_{k}": build_finite_poset(f"antichain_{k}", [f"x{i}" for i in range(k)], [])
        for k in range(2, 5)
    }
    diamond = build_finite_poset(
        "diamond", ["bot", "l", "r", "top"], [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")]
    )
    n5 = build_finite_poset(
        "n5",
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")],
    )
    m3 = build_finite_poset(
        "m3",
        ["bot", "a", "b", "c", "top"],
        [("bot", m) for m in "abc"] + [(m, "top") for m in "abc"],
    )
    cube_elems = [format(i, "03b") for i in range(8)]
    cube = build_finite_poset(
        "cube",
        cube_elems,
        [(u, v) for u in cube_elems for v in cube_elems if int(u, 2) & ~int(v, 2) == 0],
    )
    fence = build_finite_poset(
        "fence_4", ["f0", "f1", "f2", "f3"], [("f0", "f1"), ("f2", "f1"), ("f2", "f3")]
    )
    out: dict[str, FinitePoset] = {}
    out.update(chains)
    out.update(antichains)
    for p in (diamond, n5, m3, cube, fence):
        out[p.name] = p
    for k in (0, 2, 5):
        t = truncate_side_nat(k)
        out[t.name] = t
    return out


def all_corpus(max_size: int = 5) -> dict[str, FinitePoset]:
    """The verification corpus: exhaustive small posets plus the named ones."""
    out: dict[str, FinitePoset] = {}
    for n in range(1, max_size + 1):
        for p in generate_all_posets(n):
            out[p.name] = p
    for name, p in named_posets().items():
        out[name] = p
    return out


@lru_cache(maxsize=None)
def directed_index_posets(max_size: int) -> tuple[FinitePoset, ...]:
    """Every directed poset up to ``max_size`` elements, for use as net indexes."""
    out = []
    for n in range(1, max_size + 1):
        for p in generate_all_posets(n):
            if p.greatest_of_mask(p.universe) is not None:
                out.append(p)
    return tuple(out)


def resolve_poset(name: str) -> FinitePoset:
    """Look up a corpus poset by name: a named poset, or an enumerated one
    under exactly the name :func:`generate_all_posets` gives it."""
    named = named_posets()
    if name in named:
        return named[name]
    size = name[1:].partition("_")[0]
    if name.startswith("p") and size in [str(n) for n in range(1, MAX_ENUMERATED_SIZE + 1)]:
        for p in generate_all_posets(int(size)):
            if p.name == name:
                return p
    raise UnknownElement(f"no corpus poset named {name!r}")
