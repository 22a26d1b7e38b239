import random
from fractions import Fraction
from itertools import combinations

import pytest

from lww.core import PreconditionError
from lww import laces as lc


def test_is_connected_definition():
    assert lc.is_connected({(0, 2)}, 0, 2)
    assert not lc.is_connected({(0, 1)}, 0, 1)  # single short edge by fiat
    assert not lc.is_connected({(0, 1), (1, 2)}, 0, 2)  # j=1 not straddled
    assert lc.is_connected({(0, 2), (1, 3)}, 0, 3)
    assert not lc.is_connected({(1, 3)}, 0, 3)  # nothing leaves a


def test_lace_of_examples():
    g = frozenset({(0, 2), (1, 3)})
    assert lc.lace_of(g, 0, 3) == g
    L = lc.lace_of(frozenset({(0, 2)}), 0, 2)
    assert lc.lace_of(L, 0, 2) == L
    with pytest.raises(PreconditionError):
        lc.lace_of(frozenset({(0, 1)}), 0, 1)


def test_lace_of_fig2_style():
    # a 9-edge labelled graph on [0, 26] reducing to a 4-edge lace with
    # three spacelike edges and one timelike edge
    S, T = lc.SPACELIKE, lc.TIMELIKE
    g = frozenset(
        {
            (0, 10, S),
            (2, 5, S),
            (4, 6, T),
            (8, 15, T),
            (8, 15, S),
            (12, 25, S),
            (13, 19, S),
            (20, 22, T),
            (21, 23, S),
            (24, 26, T),
        }
    )
    lace = lc.lace_of(g, 0, 26)
    assert {(s, t) for s, t, _ in lace} == {(0, 10), (8, 15), (12, 25), (24, 26)}
    labels = {(s, t): lab for s, t, lab in lace}
    # (8,15) carries both labels in g: the tie-break keeps spacelike
    assert labels[(8, 15)] == S
    assert labels[(24, 26)] == T
    assert sum(1 for lab in labels.values() if lab == S) == 3


def test_compatible_edges_examples():
    S, T = lc.SPACELIKE, lc.TIMELIKE
    L = frozenset({(0, 2, S)})
    comp = lc.compatible_edges(L, 0, 2)
    assert (0, 1, S) in comp and (0, 1, T) in comp
    # label sensitivity: the timelike twin of a spacelike lace edge is
    # compatible, the reverse is not
    assert (0, 2, T) in comp
    L_t = frozenset({(0, 2, T)})
    comp_t = lc.compatible_edges(L_t, 0, 2)
    assert (0, 2, S) not in comp_t
    # edges beyond the lace's last endpoint are never compatible
    L2 = lc.lace_of(frozenset({(0, 2, S), (1, 3, S)}), 0, 4 - 1)
    comp2 = lc.compatible_edges(L2, 0, 3)
    assert all(t <= 3 for _, t, _ in comp2)


def _compatible_brute(lace, a, b):
    """The definition: every edge st off the lace with lace_of(lace + st) == lace."""
    labels = (lc.SPACELIKE, lc.TIMELIKE) if all(len(e) == 3 for e in lace) else (None,)
    out = set()
    for s, t in combinations(range(a, b + 1), 2):
        for lab in labels:
            e = (s, t) if lab is None else (s, t, lab)
            if e not in lace and lc.lace_of(lace | {e}, a, b) == lace:
                out.add(e)
    return frozenset(out)


def test_compatible_edges_match_brute_force():
    laces = [(L, m) for m in range(10) for L in lc.all_laces(0, m)]
    assert len(laces) == 987
    for L, m in laces:
        assert lc.compatible_edges(L, 0, m) == _compatible_brute(L, 0, m)


def test_compatible_edges_labelled_match_brute_force():
    laces = [(L, m) for m in range(7) for L in lc.all_laces(0, m, labelled=True)]
    assert len(laces) == 418
    for L, m in laces:
        assert lc.compatible_edges(L, 0, m) == _compatible_brute(L, 0, m)


def test_compatible_edges_offset_interval():
    laces = lc.all_laces(3, 10)
    assert laces
    for L in laces:
        assert lc.compatible_edges(L, 3, 10) == _compatible_brute(L, 3, 10)


def test_compatible_edges_rejects_non_laces():
    S, T = lc.SPACELIKE, lc.TIMELIKE
    for graph, b in (
        (frozenset({(0, 2), (1, 3), (0, 3)}), 3),  # connected, not minimal
        (frozenset({(0, 2)}), 3),  # not connected on [0, 3]
        (frozenset({(0, 2, S), (0, 2, T)}), 2),  # two labels on one position
    ):
        with pytest.raises(PreconditionError):
            lc.compatible_edges(graph, 0, b)


def test_all_laces_distinct_and_laces():
    total = 0
    for m in range(13):
        laces = lc.all_laces(0, m)
        assert len(set(laces)) == len(laces)
        assert all(lc.is_lace(L, 0, m) for L in laces)
        total += len(laces)
    assert total == 17711


def test_minimality():
    for L in lc.all_laces(0, 5):
        assert lc.is_lace(L, 0, 5)
        for e in L:
            assert not lc.is_connected(L - {e}, 0, 5)
        # the lace of a connected supergraph is contained in it
        sup = L | {(0, 1)}
        assert lc.lace_of(sup, 0, 5) <= sup


def test_prescription_hand_example():
    u, v, x = Fraction(3), Fraction(5, 2), Fraction(-1, 3)
    ws = {(0, 2): u, (0, 1): v, (1, 2): x}
    expect = u * (1 + v) * (1 + x)
    assert lc.connected_graph_sum(0, 2, ws) == expect
    assert lc.lace_prescription_sum(0, 2, ws) == expect
    zero = {k: Fraction(0) for k in ws}
    assert lc.connected_graph_sum(0, 2, zero) == 0


def _rand_weights(rng, L, labelled=False):
    ws = {}
    for s, t in combinations(range(L + 1), 2):
        if labelled:
            ws[(s, t, lc.SPACELIKE)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            ws[(s, t, lc.TIMELIKE)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        else:
            ws[(s, t)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return ws


def test_prescription_random():
    rng = random.Random(3)
    for L in range(2, 7):
        for _ in range(20):
            ws = _rand_weights(rng, L)
            assert lc.connected_graph_sum(0, L, ws) == lc.lace_prescription_sum(0, L, ws)
    for L in range(2, 5):
        for _ in range(20):
            ws = _rand_weights(rng, L, labelled=True)
            assert lc.connected_graph_sum(0, L, ws) == lc.lace_prescription_sum(0, L, ws)


def test_graph_sums_against_subset_bruteforce():
    # the DP must agree with literal subset enumeration on small intervals
    rng = random.Random(5)
    for L in range(1, 5):
        ws = _rand_weights(rng, L)
        items = list(ws)
        K = Fraction(0)
        J = Fraction(0)
        for mask in range(1 << len(items)):
            g = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            p = Fraction(1)
            for e in g:
                p *= ws[e]
            K += p
            if g and lc.is_connected(g, 0, L):
                J += p
        K2, J2 = lc.K_J(0, L, ws)
        assert (K, J) == (K2, J2)


def test_kj_base_cases_and_recursion():
    assert lc.K_J(0, 0, {}) == (Fraction(1), Fraction(0))
    assert lc.K_J(1, 0, {}) == (Fraction(0), Fraction(0))
    ws = {(0, 1): Fraction(2)}
    assert lc.K_J(0, 1, ws) == (Fraction(3), Fraction(0))
    rng = random.Random(9)
    for L in range(1, 7):
        for _ in range(20):
            ws = _rand_weights(rng, L)
            assert lc.kj_recursion_residual(0, L, ws) == 0


def test_valid_vectors():
    assert lc.valid_vectors(1, 1) == []
    assert lc.valid_vectors(1, 4) == [(4,)]
    vecs = lc.valid_vectors(2, 4)
    assert all(v[0] >= 1 and v[1] >= 1 and v[2] >= 1 and sum(v) == 4 for v in vecs)
    vecs3 = lc.valid_vectors(3, 4)
    assert (1, 1, 0, 1, 1) in vecs3
    # every valid vector's lace really is a lace, and the subinterval
    # lengths recovered from the lace match the vector
    for N in (1, 2, 3):
        for m in range(2, 8):
            for mv in lc.valid_vectors(N, m):
                pos = lc.lace_positions_for_vector(mv)
                assert lc.is_lace(pos, 0, m)
                cuts = sorted(set(v for e in pos for v in e))
                lengths = [b - a for a, b in zip(cuts, cuts[1:])]
                assert [x for x in lengths if True] == [x for x in mv if x > 0]


def test_cap():
    ws = {(0, 1): Fraction(1)}
    with pytest.raises(lc.CapExceeded):
        lc.connected_graph_sum(0, 9, {(s, s + 1): Fraction(1) for s in range(9)})
