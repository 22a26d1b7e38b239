import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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


def _kj_residual_oracle(a, b, ws):
    """kj_recursion_residual's former body: one checked K_J call per term."""
    K_ab, _ = lc.K_J(a, b, ws)
    K_a1, _ = lc.K_J(a, a + 1, ws)
    K_rest, _ = lc.K_J(a + 1, b, ws)
    acc = K_a1 * K_rest
    for j in range(2, b - a + 1):
        _, J_j = lc.K_J(a, a + j, ws)
        K_j, _ = lc.K_J(a + j, b, ws)
        acc += J_j * K_j
    return K_ab - acc


def test_kj_residual_matches_former_body_and_caps():
    rng = random.Random(11)
    for a, b in ((0, -1), (0, 0), (2, 2), (2, 3), (1, 5), (0, 6)):
        for labelled in (False, True):
            if labelled and b - a > 4:
                continue
            ws = {tuple(x + a for x in e[:2]) + e[2:]: w
                  for e, w in _rand_weights(rng, max(b - a, 1), labelled).items()}
            assert lc.kj_recursion_residual(a, b, ws) == _kj_residual_oracle(a, b, ws)
    with pytest.raises(lc.CapExceeded):
        lc.kj_recursion_residual(0, 7, _rand_weights(rng, 7))
    with pytest.raises(lc.CapExceeded):
        lc.kj_recursion_residual(1, 6, _rand_weights(rng, 5, labelled=True))


def test_lace_terms_are_the_laces_with_their_compatible_edges():
    """The cached (lace, compatible edges) list of every interval and
    labelling the lace suite reads, and of an offset interval, equals
    all_laces zipped with _compatible_edges; the cache is bounded."""
    cases = [(0, L, False) for L in range(2, 7)] + [(0, L, True) for L in range(2, 5)] + [(3, 7, False), (2, 5, True)]
    for a, b, labelled in cases:
        laces = lc.all_laces(a, b, labelled=labelled)
        want = [(lace, lc._compatible_edges(lace, a, b)) for lace in laces]
        assert list(lc._lace_terms(a, b, labelled)) == want
    assert lc._lace_terms.cache_info().maxsize is not None


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


def test_mixed_weight_keys_rejected():
    # unlabelled weights beside labelled ones were silently ignored (sum 0)
    ws = {(0, 2): 1, (0, 1, lc.SPACELIKE): 1, (1, 2, lc.TIMELIKE): 1}
    for f in (lc.connected_graph_sum, lc.lace_prescription_sum, lc.K_J, lc.kj_recursion_residual):
        with pytest.raises(PreconditionError, match="all"):
            f(0, 2, ws)


def test_unknown_label_rejected():
    ws = {(0, 2, lc.SPACELIKE): 1, (0, 1, "spacelke"): 1}
    for f in (lc.connected_graph_sum, lc.lace_prescription_sum, lc.K_J, lc.kj_recursion_residual):
        with pytest.raises(PreconditionError, match="label"):
            f(0, 2, ws)


def test_float_weight_rejected():
    # a float made lace_prescription_sum return a float beside a Fraction J
    ws = {(0, 2): 0.5, (0, 1): Fraction(1, 3), (1, 2): 2}
    for f in (lc.connected_graph_sum, lc.lace_prescription_sum, lc.K_J, lc.kj_recursion_residual):
        with pytest.raises(PreconditionError, match="Fraction"):
            f(0, 2, ws)


def test_weights_outside_the_interval_allowed():
    ws = {(0, 1): Fraction(2), (1, 2): Fraction(1, 3), (0, 2): -1, (5, 9): Fraction(7, 5)}
    assert lc.K_J(0, 1, ws) == (Fraction(3), Fraction(0))
    assert lc.kj_recursion_residual(0, 2, ws) == 0
    assert lc.connected_graph_sum(0, 2, ws) == lc.lace_prescription_sum(0, 2, ws) == -4  # -1 (1 + 2) (1 + 1/3)


# ---------------------------------------------------------------------------
# the integer kernels against their former Fraction bodies


def _position_weights_oracle(a, b, weights):
    labelled = any(len(k) == 3 for k in weights)
    out = {}
    for s, t in combinations(range(a, b + 1), 2):
        if labelled:
            wsp = weights.get((s, t, lc.SPACELIKE), Fraction(0))
            wtl = weights.get((s, t, lc.TIMELIKE), Fraction(0))
            w = wsp + wtl + wsp * wtl
        else:
            w = weights.get((s, t), Fraction(0))
        if w != 0:
            out[(s, t)] = Fraction(w)
    return out


def _graph_sums_oracle(a, b, pos_weights):
    """_graph_sums's former body: the coverage-state DP folding Fractions."""
    if b <= a:
        return (Fraction(1), Fraction(0)) if b == a else (Fraction(0), Fraction(0))
    full = (1 << (b - a - 1)) - 1
    states = {(0, False, False): Fraction(1)}
    for (s, t), w in pos_weights.items():
        mask = 0
        for j in range(max(s + 1, a + 1), min(t, b)):
            mask |= 1 << (j - a - 1)
        nxt = dict(states)
        for (cover, ta, tb), wt in states.items():
            key = (cover | mask, ta or s == a, tb or t == b)
            nxt[key] = nxt.get(key, Fraction(0)) + wt * w
        states = nxt
    K = sum(states.values(), Fraction(0))
    J = states.get((full, True, True), Fraction(0)) if b > a + 1 else Fraction(0)
    return K, J


def _lace_prescription_oracle(a, b, weights):
    """lace_prescription_sum's former body: one Fraction product per lace."""
    labelled = any(len(k) == 3 for k in weights)
    acc = Fraction(0)
    for lace in lc.all_laces(a, b, labelled=labelled):
        p = Fraction(1)
        for e in lace:
            p *= weights.get(e, Fraction(0))
        if p == 0:
            continue
        for e in lc.compatible_edges(lace, a, b):
            p *= 1 + weights.get(e, Fraction(0))
        acc += p
    return acc


_WEIGHT = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@st.composite
def _interval_weights(draw, max_unlabelled=6, max_labelled=4):
    """(a, b, weights): an offset interval, all-int or all-Fraction or mixed
    weights with zeros and negatives, unlabelled (L <= 6) or labelled (L <= 4)."""
    labelled = draw(st.booleans())
    L = draw(st.integers(1, max_labelled if labelled else max_unlabelled))
    a = draw(st.integers(-3, 5))
    labels = (lc.SPACELIKE, lc.TIMELIKE) if labelled else (None,)
    keys = [(s, t) if lab is None else (s, t, lab)
            for s, t in combinations(range(a, a + L + 1), 2) for lab in labels]
    present = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    ws = {k: draw(_WEIGHT) for k, keep in zip(keys, present) if keep}
    return a, a + L, ws


@settings(max_examples=150, deadline=None)
@given(_interval_weights())
def test_graph_sums_match_fraction_oracle(case):
    a, b, ws = case
    got = lc.K_J(a, b, ws)
    want = _graph_sums_oracle(a, b, _position_weights_oracle(a, b, ws))
    assert got == want and all(type(x) is Fraction for x in got)
    _, J = want
    assert lc.connected_graph_sum(a, b, ws) == J


@settings(max_examples=150, deadline=None)
@given(_interval_weights())
def test_lace_prescription_matches_fraction_oracle(case):
    a, b, ws = case
    got = lc.lace_prescription_sum(a, b, ws)
    assert got == _lace_prescription_oracle(a, b, ws)
    assert type(got) is Fraction
    assert got == lc.connected_graph_sum(a, b, ws)
