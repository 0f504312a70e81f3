"""Word/permutation engine against brute-force oracles.

The oracles here are independent of the library code paths: BFS over the
Cayley graph of S_n gives distances and the full set of reduced words,
and the Matsumoto check is a closure search over braid/commutation moves.
"""

import itertools
from collections import deque

import pytest

from cubeforge.perms import (
    BCWord,
    Perm,
    SignedPerm,
    TWord,
    boundary_perm,
    boundary_word,
    eval_bc_word,
    eval_word,
    length,
    min_rep,
    parse_word,
    rho,
)


def all_perms(n):
    return [Perm(p) for p in itertools.permutations(range(1, n + 1))]


def bfs_distances(n):
    """Cayley-graph BFS from the identity; also returns all reduced words."""
    start = Perm.identity(n)
    dist = {start.images: 0}
    words = {start.images: [()]}
    queue = deque([start])
    gens = [(i, Perm.transposition(n, i)) for i in range(1, n)]
    while queue:
        p = queue.popleft()
        for i, t in gens:
            q = p.then(t)
            d = dist[p.images] + 1
            if q.images not in dist:
                dist[q.images] = d
                words[q.images] = [w + (i,) for w in words[p.images]]
                queue.append(q)
            elif dist[q.images] == d:
                words[q.images].extend(w + (i,) for w in words[p.images])
    # dedupe reduced words (several BFS parents can contribute the same word)
    words = {k: sorted(set(v)) for k, v in words.items()}
    return dist, words


def test_eval_word_basics():
    assert eval_word(TWord(2, ())).is_identity()
    assert eval_word(TWord(2, (1, 1))).is_identity()
    assert eval_word(TWord(3, (1, 2, 1))) == eval_word(TWord(3, (2, 1, 2)))


def test_eval_word_respects_relations_in_context():
    # substituting either side of a relation in any context gives equal perms
    n = 4
    contexts = [((), ()), ((1,), (3,)), ((2, 1), (1, 2)), ((3, 2, 1), ())]
    relations = [((1, 1), ()), ((2, 2), ()), ((3, 3), ()),
                 ((1, 2, 1), (2, 1, 2)), ((2, 3, 2), (3, 2, 3)),
                 ((1, 3), (3, 1))]
    for left, right in contexts:
        for a, b in relations:
            wa = TWord(n, left + a + right)
            wb = TWord(n, left + b + right)
            assert eval_word(wa) == eval_word(wb)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_is_inversion_count_and_bfs_distance(n):
    dist, _ = bfs_distances(n)
    for p in all_perms(n):
        assert length(p) == dist[p.images]


def test_length_examples():
    assert length(Perm.identity(4)) == 0
    assert length(Perm.transposition(2, 1)) == 1
    assert length(rho(2, 2)) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_rep_is_reduced_and_evaluates_back(n):
    dist, words = bfs_distances(n)
    for p in all_perms(n):
        w = min_rep(p)
        assert eval_word(w) == p
        assert len(w) == dist[p.images]
        assert w.letters in words[p.images]


def test_min_rep_examples():
    assert min_rep(Perm.identity(3)).letters == ()
    assert min_rep(Perm.transposition(3, 2)).letters == (2,)
    assert min_rep(rho(1, 1)).letters == (1,)


def braid_comm_moves(word):
    """All words reachable from `word` by one braid or commutation move."""
    out = set()
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if abs(a - b) >= 2:
            out.add(word[:k] + (b, a) + word[k + 2:])
    for k in range(len(word) - 2):
        a, b, c = word[k:k + 3]
        if a == c and abs(a - b) == 1:
            out.add(word[:k] + (b, a, b) + word[k + 3:])
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matsumoto_connectivity(n):
    # every pair of reduced words of the same permutation is connected by
    # braid/commutation moves alone (never the T_i T_i cancellation)
    _, words = bfs_distances(n)
    for reduced in words.values():
        start = reduced[0]
        seen = {start}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for v in braid_comm_moves(w):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        assert seen == set(reduced)


def test_boundary_word_examples():
    w = TWord(3, (1, 2))
    assert boundary_word(w, 1).letters == ()
    assert boundary_word(w, 2).letters == (1,)
    assert boundary_word(w, 3).letters == (1,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_perm_matches_boundary_word(n):
    for p in all_perms(n):
        w = min_rep(p)
        for i in range(1, n + 1):
            assert boundary_perm(p, i) == eval_word(boundary_word(w, i))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_perm_defining_identity(n):
    # j . boundary_perm(p, i) == (j^i . p)_{i . p}, and on words too
    from cubeforge.indices import lower, raise_

    for p in all_perms(n):
        for i in range(1, n + 1):
            q = boundary_perm(p, i)
            for j in range(1, n):
                assert q.apply(j) == lower(p.apply(raise_(j, i)), p.apply(i))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_perm_commutation(n):
    from cubeforge.indices import lower

    for p in all_perms(n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                lhs = boundary_perm(boundary_perm(p, j), lower(i, j))
                rhs = boundary_perm(boundary_perm(p, i), lower(j, i))
                assert lhs == rhs


def test_rho_properties():
    assert rho(0, 3).is_identity()
    assert rho(1, 1) == Perm.transposition(2, 1)
    for n in range(0, 5):
        for m in range(0, 5):
            assert rho(n, m).then(rho(m, n)).is_identity()


@pytest.mark.parametrize("n, m", [(2, -3), (-1, 2)])
def test_rho_rejects_a_negative_block(n, m):
    with pytest.raises(ValueError, match=f"block sizes must be >= 0, got n={n}, m={m}"):
        rho(n, m)


def test_rho_boundaries():
    # deleting a first-block strand gives rho(n-1, p); deleting a
    # second-block strand gives rho(n, p-1)
    for n in range(0, 5):
        for p in range(0, 5):
            for i in range(1, n + 1):
                assert boundary_perm(rho(n, p), i) == rho(n - 1, p)
            for i in range(1, p + 1):
                assert boundary_perm(rho(n, p), n + i) == rho(n, p - 1)


def test_parse_and_format():
    w = parse_word("t1 T2 t1")
    assert isinstance(w, TWord) and w.letters == (1, 2, 1)
    b = parse_word("R2 T1")
    assert isinstance(b, BCWord) and b.letters == (("R", 2), ("T", 1))
    assert str(b) == "R2 T1"
    with pytest.raises(ValueError):
        parse_word("Q1")


def test_bc_word_examples():
    assert eval_bc_word(BCWord(2, (("R", 1), ("R", 1)))).is_identity()
    assert eval_bc_word(BCWord(2, ())).is_identity()
    lhs = eval_bc_word(BCWord(2, (("T", 1), ("R", 1))))
    rhs = eval_bc_word(BCWord(2, (("R", 2), ("T", 1))))
    assert lhs == rhs


def test_bc_relations_exhaustive():
    # all nine presentation relations, checked in random-free exhaustive
    # contexts of length <= 2 over n = 3
    n = 3
    gens = [("T", 1), ("T", 2), ("R", 1), ("R", 2), ("R", 3)]

    def relations():
        for i in range(1, n):
            yield (("T", i), ("T", i)), ()
        yield (("T", 1), ("T", 2), ("T", 1)), (("T", 2), ("T", 1), ("T", 2))
        for i in range(1, n + 1):
            yield (("R", i), ("R", i)), ()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    yield (("R", i), ("R", j)), (("R", j), ("R", i))
        for i in range(1, n):
            yield (("T", i), ("R", i)), (("R", i + 1), ("T", i))
            yield (("T", i), ("R", i + 1)), (("R", i), ("T", i))
            for j in range(1, n + 1):
                if j not in (i, i + 1):
                    yield (("T", i), ("R", j)), (("R", j), ("T", i))

    contexts = [()] + [(g,) for g in gens]
    for a, b in relations():
        for left in contexts:
            for right in contexts:
                wa = BCWord(n, left + a + right)
                wb = BCWord(n, left + b + right)
                assert eval_bc_word(wa) == eval_bc_word(wb)


def test_signed_perm_projection():
    s = eval_bc_word(BCWord(3, (("T", 1), ("R", 2), ("T", 2))))
    assert s.perm() == eval_word(TWord(3, (1, 2)))
    assert set(s.signs()) <= {1, -1}
