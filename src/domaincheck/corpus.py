"""Test corpora: named finite posets and exhaustive enumeration by size.

The exhaustive generator walks every strict relation on positions
``0..n-1`` that only relates smaller positions to larger ones, keeps the
transitive ones, and deduplicates up to isomorphism with a canonical
relabeling.  Every finite poset admits such a position-respecting
labeling (any linear extension), so the walk reaches every isomorphism
class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .errors import TooLarge
from .oplog import logged
from .order import FinitePoset, bits, build_finite_poset
from .sidenat import truncate_side_nat

MAX_ENUMERATED_SIZE = 6

# The number of posets up to isomorphism of each size (OEIS A000112);
# ``test_unlabeled_counts`` checks the enumeration against it.
UNLABELED_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}


def _transitive_strict_relations(n: int):
    """Strict orders on ``range(n)`` relating only lower to higher positions.

    Yields ``above`` tables: ``above[i]`` is the mask of positions
    strictly above ``i``.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for sel in range(1 << len(pairs)):
        above = [0] * n
        for b, (i, j) in enumerate(pairs):
            if sel >> b & 1:
                above[i] |= 1 << j
        ok = True
        for i in range(n - 1, -1, -1):
            acc = 0
            for j in bits(above[i]):
                acc |= above[j]
            if acc & ~above[i]:
                ok = False
                break
        if ok:
            yield tuple(above)


def _canonical_key(n: int, above: tuple[int, ...]) -> int:
    """Least relation encoding over all profile-respecting relabelings.

    Positions are grouped by the isomorphism-invariant profile (strict
    up-set size, strict down-set size) and each group is mapped onto a
    slot range fixed by the sorted profile values, so isomorphic
    relations range over the same set of encodings.
    """
    below = [0] * n
    for i in range(n):
        for j in bits(above[i]):
            below[j] |= 1 << i
    profile = [(bin(above[i]).count("1"), bin(below[i]).count("1")) for i in range(n)]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pr in enumerate(profile):
        groups.setdefault(pr, []).append(i)
    slotted = []
    start = 0
    for value in sorted(groups):
        members = groups[value]
        slotted.append((members, range(start, start + len(members))))
        start += len(members)
    best = None
    for parts in product(*(permutations(slots) for _, slots in slotted)):
        perm = [0] * n
        for (members, _), news in zip(slotted, parts):
            for old, new in zip(members, news):
                perm[old] = new
        key = 0
        for i in range(n):
            pi = perm[i]
            for j in bits(above[i]):
                key |= 1 << (pi * n + perm[j])
        if best is None or key < best:
            best = key
    assert best is not None
    return best


@logged("corpus.generate")
@lru_cache(maxsize=None)
def generate_all_posets(n: int) -> tuple[FinitePoset, ...]:
    """Every poset on ``n`` elements up to isomorphism, deterministically named."""
    if n < 1:
        raise TooLarge("poset enumeration needs a positive size")
    if n > MAX_ENUMERATED_SIZE:
        raise TooLarge(f"poset enumeration is capped at {MAX_ENUMERATED_SIZE} elements")
    seen: set[int] = set()
    out: list[FinitePoset] = []
    for above in _transitive_strict_relations(n):
        key = _canonical_key(n, above)
        if key in seen:
            continue
        seen.add(key)
        elems = [f"e{i}" for i in range(n)]
        le = [(f"e{i}", f"e{j}") for i in range(n) for j in bits(above[i])]
        out.append(build_finite_poset(f"p{n}_{len(out)}", elems, le))
    return tuple(out)


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
    """Look up a corpus poset by name, accepting both naming schemes."""
    named = named_posets()
    if name in named:
        return named[name]
    if name.startswith("p") and "_" in name:
        size, _, idx = name[1:].partition("_")
        if size.isdigit() and idx.isdigit():
            posets = generate_all_posets(int(size))
            if int(idx) < len(posets):
                return posets[int(idx)]
    from .errors import UnknownElement

    raise UnknownElement(f"no corpus poset named {name!r}")
