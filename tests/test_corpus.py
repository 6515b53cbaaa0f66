"""Poset corpus: exhaustive enumeration up to isomorphism, named posets."""

from __future__ import annotations

from itertools import permutations, product

import pytest

from domaincheck import corpus as cp
from domaincheck.errors import TooLarge, UnknownElement
from domaincheck.order import bits, build_finite_poset

# Frozen counts of labeled posets for the cross-check, derived by
# independent enumeration.
LABELED = {1: 1, 2: 3, 3: 19, 4: 219}


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


def _walk_posets(n: int):
    """The oracle generator: walk every strict relation on positions
    ``0..n-1`` that only relates smaller positions to larger ones, keep
    the transitive ones, and keep the first of each isomorphism class
    by a profile-slot canonical key.  Every finite poset has such a
    labeling (any linear extension), so the walk reaches every class."""
    seen: set[int] = set()
    out = []
    for above in _transitive_strict_relations(n):
        key = _canonical_key(n, above)
        if key in seen:
            continue
        seen.add(key)
        elems = [f"e{i}" for i in range(n)]
        le = [(f"e{i}", f"e{j}") for i in range(n) for j in bits(above[i])]
        out.append(build_finite_poset(f"p{n}_{len(out)}", elems, le))
    return tuple(out)


@pytest.mark.parametrize("n", range(1, cp.MAX_ENUMERATED_SIZE + 1))
def test_generator_matches_walk_oracle(n):
    """Same posets, names, element labels and order as the relation walk."""
    assert cp.generate_all_posets(n) == _walk_posets(n)


def test_least_encoding_ignores_labels():
    """Every relabelling of a poset's strict order has the same least encoding."""
    for n in range(1, 6):
        for p in cp.generate_all_posets(n):
            strict = [p.down[i] & ~(1 << i) for i in range(n)]
            want = cp._least_encoding(strict)
            for perm in permutations(range(n)):
                relabelled = [0] * n
                for i in range(n):
                    for j in bits(strict[i]):
                        relabelled[perm[i]] |= 1 << perm[j]
                assert cp._least_encoding(relabelled) == want, (p.name, perm)


def test_unlabeled_counts():
    for n, count in cp.UNLABELED_POSET_COUNTS.items():
        assert len(cp.generate_all_posets(n)) == count


def test_labeled_cross_check():
    """Orbit sizes of the representatives sum to the labeled count."""
    import math

    for n, want in LABELED.items():
        total = 0
        for p in cp.generate_all_posets(n):
            autos = 0
            idx = {e: i for i, e in enumerate(p.elements)}
            for perm in permutations(range(p.n)):
                if all(
                    p.leq_ix(i, j) == p.leq_ix(perm[i], perm[j])
                    for i in range(p.n)
                    for j in range(p.n)
                ):
                    autos += 1
            total += math.factorial(p.n) // autos
        assert total == want, f"n={n}"


def test_representatives_pairwise_nonisomorphic():
    reps = cp.generate_all_posets(4)
    for i, p in enumerate(reps):
        for q in reps[i + 1 :]:
            iso = any(
                all(
                    p.leq_ix(a, b) == q.leq_ix(perm[a], perm[b])
                    for a in range(4)
                    for b in range(4)
                )
                for perm in permutations(range(4))
            )
            assert not iso, f"{p.name} ~ {q.name}"


def test_size_guard():
    with pytest.raises(TooLarge):
        cp.generate_all_posets(7)


def test_named_posets_shapes():
    named = cp.named_posets()
    assert named["diamond"].leq("bot", "top")
    assert not named["diamond"].leq("l", "r")
    assert named["cube"].n == 8
    assert named["cube"].leq("000", "101")
    assert not named["cube"].leq("100", "010")
    assert named["chain_6"].leq("c0", "c5")
    assert named["fence_4"].leq("f0", "f1") and named["fence_4"].leq("f2", "f1")
    assert named["side_nat_to_2"].leq("a", "inf")


def test_corpus_aggregate_size():
    corpus = cp.all_corpus(5)
    assert len(corpus) == 87 + len(cp.named_posets())
    assert all(p.n <= 8 for p in corpus.values())


def test_directed_index_posets():
    indexes = cp.directed_index_posets(4)
    assert len(indexes) == 9  # 1 + 1 + 2 + 5 shapes with a greatest element
    for idx in indexes:
        assert idx.is_directed_mask(idx.universe)


def test_resolve():
    assert cp.resolve_poset("diamond").name == "diamond"
    assert cp.resolve_poset("p3_2").n == 3
    with pytest.raises(UnknownElement):
        cp.resolve_poset("zilch")
    for name, p in cp.all_corpus(cp.MAX_ENUMERATED_SIZE).items():
        assert cp.resolve_poset(name) == p, name
