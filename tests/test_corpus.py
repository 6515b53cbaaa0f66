"""Poset corpus: exhaustive enumeration up to isomorphism, named posets."""

from __future__ import annotations

from itertools import permutations

import pytest

from domaincheck import corpus as cp
from domaincheck.errors import TooLarge, UnknownElement

# Frozen counts of labeled posets for the cross-check, derived by
# independent enumeration.
LABELED = {1: 1, 2: 3, 3: 19, 4: 219}


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
