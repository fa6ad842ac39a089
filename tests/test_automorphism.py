import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.automorphism import (GroupElement, IndexPermutation, burnside_count,
                               canonical_representative, element_pair,
                               mult_a_pair, mult_b_pair, shift_pair,
                               variable_mult, variable_shift,
                               verify_commutation)
from synq.automorphism import _necklace_rows, _orbit_index, group_table
from synq.codes import bits_to_int
from conftest import rng_for_tests


# ---------------------------------------------------------------------------
# index permutations
# ---------------------------------------------------------------------------


def test_permutation_moves_values_to_images():
    perm = IndexPermutation([2, 0, 1])
    out = perm.apply_bits(np.array([10, 20, 30]))
    # value at index 0 lands at index 2, etc.
    assert out.tolist() == [20, 30, 10]


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        IndexPermutation([0, 0, 2])
    with pytest.raises(ValueError):
        IndexPermutation([[0, 1], [1, 0]])


def test_apply_int_matches_apply_bits():
    rng = rng_for_tests(30)
    for _ in range(25):
        size = int(rng.integers(1, 20))
        perm = IndexPermutation(rng.permutation(size))
        bits = (rng.random(size) < 0.4).astype(np.uint8)
        assert perm.apply_int(bits_to_int(bits)) == bits_to_int(perm.apply_bits(bits))


def ref_apply_int(perm: IndexPermutation, x: int) -> int:
    """Bit-by-bit permutation of a packed vector, the reference for `apply_int`."""
    y = 0
    i = 0
    while x:
        if x & 1:
            y |= 1 << int(perm.mapping[i])
        x >>= 1
        i += 1
    return y


@given(st.data())
def test_apply_int_matches_reference_loop(data):
    size = data.draw(st.one_of(st.sampled_from([0, 93, 155]), st.integers(0, 200)))
    perm = IndexPermutation(data.draw(st.permutations(range(size))))
    x = data.draw(st.integers(0, 2**size - 1))
    assert perm.apply_int(x) == ref_apply_int(perm, x)


def test_apply_int_range_check():
    with pytest.raises(ValueError):
        IndexPermutation([1, 0]).apply_int(4)


def test_compose_applies_right_factor_first():
    f = IndexPermutation([1, 2, 0])
    g = IndexPermutation([0, 2, 1])
    fg = f.compose(g)
    for i in range(3):
        assert fg.mapping[i] == f.mapping[g.mapping[i]]


def test_inverse_round_trip():
    rng = rng_for_tests(31)
    perm = IndexPermutation(rng.permutation(12))
    ident = perm.compose(perm.inverse())
    assert ident == IndexPermutation(np.arange(12))


def test_shift_perm_by_hand(small_spec):
    # p=7, three variable necklaces; delta=1 sends (t, i) to (t, i+1)
    perm = variable_shift(small_spec, 1)
    assert perm.mapping[0] == 1 and perm.mapping[6] == 0
    assert perm.mapping[7] == 8 and perm.mapping[13] == 7
    # delta wraps modulo p
    assert variable_shift(small_spec, 8) == variable_shift(small_spec, 1)


def test_mult_perm_advances_blocks(small_spec):
    perm = variable_mult(small_spec)
    p, a = small_spec.p, small_spec.a
    # (0, 1) -> (1, a); final block wraps to block 0
    assert perm.mapping[1] == p + a % p
    assert perm.mapping[2 * p] == 0


# ---------------------------------------------------------------------------
# the check-side group
# ---------------------------------------------------------------------------


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(7, 0, 7, 3, 2)  # u out of range
    with pytest.raises(ValueError):
        GroupElement(0, 0, 7, 3, 3)  # 3^3 = 27 != 1 mod 7


def test_group_identity_and_inverse():
    ident = GroupElement(0, 0, 7, 3, 2)
    rng = rng_for_tests(32)
    for _ in range(20):
        g = GroupElement(int(rng.integers(7)), int(rng.integers(3)), 7, 3, 2)
        assert g.compose(g.inverse()) == ident
        assert g.inverse().compose(g) == ident


def test_group_product_matches_permutation_composition():
    # the bead action is a homomorphism: perm(g*h) = perm(g) o perm(h)
    rng = rng_for_tests(33)
    for _ in range(20):
        g = GroupElement(int(rng.integers(7)), int(rng.integers(3)), 7, 3, 2)
        h = GroupElement(int(rng.integers(7)), int(rng.integers(3)), 7, 3, 2)
        lhs = g.compose(h).check_perm()
        rhs = g.check_perm().compose(h.check_perm())
        assert lhs == rhs


@pytest.mark.parametrize("j,b", [(3, 1), (3, 5), (4, 2)])
def test_single_bead_group_composes_and_inverts(j, b):
    # C_1 x| C_j is the cyclic group C_j: b^j = 0 = 1 mod 1 for any b, the
    # check beads rotate by s and the variable beads stay fixed
    ident = GroupElement(0, 0, 1, j, b)
    for s in range(j):
        g = GroupElement(0, s, 1, j, b)
        assert g.compose(g.inverse()) == ident == g.inverse().compose(g)
        assert g.check_perm() == IndexPermutation([(c + s) % j for c in range(j)])
        assert g.variable_perm(3) == IndexPermutation(range(3))
        for t in range(j):
            h = GroupElement(0, t, 1, j, b)
            assert g.compose(h) == GroupElement(0, (s + t) % j, 1, j, b)
            assert g.compose(h).check_perm() == g.check_perm().compose(h.check_perm())


def test_defining_relation():
    # rho sigma rho^-1 = sigma^b
    p, j, b = 7, 3, 2
    sigma = GroupElement(1, 0, p, j, b)
    rho = GroupElement(0, 1, p, j, b)
    lhs = rho.compose(sigma).compose(rho.inverse())
    assert lhs == GroupElement(b % p, 0, p, j, b)


# ---------------------------------------------------------------------------
# matched pairs really are automorphisms
# ---------------------------------------------------------------------------


def _random_patterns(rng, n, count=30):
    return [bits_to_int((rng.random(n) < 0.15).astype(np.uint8)) for _ in range(count)]


@pytest.mark.parametrize("delta", [0, 1, 3, 6])
def test_shift_pair_commutes(small_qc, small_spec, delta):
    rng = rng_for_tests(34 + delta)
    pair = shift_pair(small_spec, delta)
    for e in _random_patterns(rng, small_qc.n):
        assert verify_commutation(e, pair, small_qc)


def test_mult_pairs_commute(small_qc, small_spec):
    rng = rng_for_tests(35)
    for pair in (mult_a_pair(small_spec), mult_b_pair(small_spec)):
        for e in _random_patterns(rng, small_qc.n):
            assert verify_commutation(e, pair, small_qc)


def test_element_pairs_commute(small_qc, small_spec):
    rng = rng_for_tests(36)
    for _ in range(12):
        g = GroupElement(int(rng.integers(7)), int(rng.integers(3)),
                         small_spec.p, small_spec.j, small_spec.b)
        pair = element_pair(small_spec, g)
        for e in _random_patterns(rng, small_qc.n, count=8):
            assert verify_commutation(e, pair, small_qc)


def test_element_pair_spec_mismatch(small_spec):
    with pytest.raises(ValueError):
        element_pair(small_spec, GroupElement(0, 0, 31, 3, 5))


def test_shift_pairs_commute_on_tanner(tanner):
    rng = rng_for_tests(37)
    spec = tanner.qc
    for delta in (1, 17, 30):
        pair = shift_pair(spec, delta)
        for e in _random_patterns(rng, tanner.n, count=10):
            assert verify_commutation(e, pair, tanner)


# ---------------------------------------------------------------------------
# orbit counting
# ---------------------------------------------------------------------------


def _brute_force_orbits(j, p, b):
    perms = []
    for u in range(p):
        for s in range(j):
            perms.append(GroupElement(u, s, p, j, b).check_perm())
    seen = set()
    orbits = 0
    for x in range(1 << (j * p)):
        if x in seen:
            continue
        orbits += 1
        for perm in perms:
            seen.add(perm.apply_int(x))
    return orbits


def test_burnside_small_cases_brute_forced():
    assert burnside_count(1, 3) == _brute_force_orbits(1, 3, 1) == 4
    assert burnside_count(2, 3, b=2) == _brute_force_orbits(2, 3, 2) == 16
    assert burnside_count(2, 5, b=4) == _brute_force_orbits(2, 5, 4)


def test_burnside_tanner_sized_group():
    assert burnside_count(3, 7, b=2) == 99952


def test_burnside_validation():
    with pytest.raises(ValueError):
        burnside_count(3, 8)  # p must be prime
    with pytest.raises(ValueError):
        burnside_count(3, 7, b=6)  # order of 6 mod 7 is 2, not 3


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


def _orbit_min(bits, p, blocks, mult):
    best = None
    for u in range(p):
        for s in range(blocks):
            g = GroupElement(u, s, p, blocks, mult)
            w = np.empty_like(bits)
            w[g.check_perm().mapping] = bits
            key = w.tobytes()
            if best is None or key < best[0]:
                best = (key, w)
    return best[1]


def test_canonical_matches_brute_force_orbit_minimum():
    rng = rng_for_tests(39)
    p, blocks, mult = 7, 3, 2
    for _ in range(40):
        bits = (rng.random(blocks * p) < 0.5).astype(np.uint8)
        got = canonical_representative(bits, p, blocks, mult)
        want = _orbit_min(bits, p, blocks, mult)
        assert np.array_equal(got, want)


#: (p, blocks, mult) with mult^blocks = 1 mod p, up to 155 beads, so the
#: packed rows span one to three 64-bit words
_GROUPS = [(p, blocks, mult) for p in (3, 5, 7, 11, 13, 31)
           for blocks in range(1, 6) for mult in range(1, p)
           if pow(mult, blocks, p) == 1 and blocks * p <= 155]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GROUPS), st.data())
def test_canonical_matches_brute_force_on_random_groups(group, data):
    p, blocks, mult = group
    # few ones, or few zeros: many orbit members then tie on the first word
    bits = np.full(blocks * p, data.draw(st.integers(0, 1)), dtype=np.uint8)
    bits[list(data.draw(st.sets(st.integers(0, blocks * p - 1))))] ^= 1
    got = canonical_representative(bits, p, blocks, mult)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _orbit_min(bits, p, blocks, mult))


@pytest.mark.parametrize("blocks", range(1, 7))
def test_canonical_at_p_one_is_the_least_rotation(blocks):
    # one bead per block: the orbit is every cyclic rotation of the vector
    for x in range(1 << blocks):
        bits = np.array([x >> i & 1 for i in range(blocks)], dtype=np.uint8)
        want = min(tuple(np.roll(bits, r)) for r in range(blocks))
        got = canonical_representative(bits, 1, blocks, 1)
        assert tuple(got) == want


def test_canonical_is_orbit_invariant():
    rng = rng_for_tests(40)
    p, blocks, mult = 7, 3, 2
    bits = (rng.random(blocks * p) < 0.4).astype(np.uint8)
    base = canonical_representative(bits, p, blocks, mult)
    for _ in range(15):
        g = GroupElement(int(rng.integers(p)), int(rng.integers(blocks)),
                         p, blocks, mult)
        moved = np.empty_like(bits)
        moved[g.check_perm().mapping] = bits
        assert np.array_equal(canonical_representative(moved, p, blocks, mult), base)


def test_canonical_fixed_points():
    ones = np.ones(21, dtype=np.uint8)
    assert np.array_equal(canonical_representative(ones, 7, 3, 2), ones)
    zeros = np.zeros(21, dtype=np.uint8)
    assert np.array_equal(canonical_representative(zeros, 7, 3, 2), zeros)


def test_canonical_validation():
    with pytest.raises(ValueError):
        canonical_representative(np.zeros(20, dtype=np.uint8), 7, 3, 2)
    with pytest.raises(ValueError):
        canonical_representative(np.full(21, 2, dtype=np.uint8), 7, 3, 2)
    with pytest.raises(ValueError):
        canonical_representative(np.zeros(21, dtype=np.uint8), 7, 3, 3)
    with pytest.raises(ValueError):
        canonical_representative(np.zeros(0, dtype=np.uint8), 7, 0, 2)


# ---------------------------------------------------------------------------
# the group table of a quasi-cyclic code
# ---------------------------------------------------------------------------


def _generators(spec):
    """sigma, rho and pi as (variable, check) image tuples, from their bead
    formulas (c, i) -> (c', i') and independently of the group table."""
    p, a, b = spec.p, spec.a, spec.b

    def beads(blocks, f):
        images = (f(c, i) for c in range(blocks) for i in range(p))
        return tuple(c % blocks * p + i % p for c, i in images)

    def pair(fv, fc):
        return beads(spec.k_blocks, fv), beads(spec.j, fc)

    return (pair(lambda c, i: (c, i + 1), lambda r, i: (r, i + 1)),
            pair(lambda c, i: (c, b * i), lambda r, i: (r + 1, b * i)),
            pair(lambda c, i: (c + 1, a * i), lambda r, i: (r, a * i)))


def _closure(gens):
    """Every product of the generators, by breadth-first search."""
    identity = tuple(tuple(range(len(side))) for side in gens[0])
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(tuple(gs[i] for i in xs) for gs, xs in zip(g, x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


CODES = pytest.mark.parametrize("code,order", [("tanner", 465), ("small_qc", 63)])


@CODES
def test_group_table_has_order_pjk_with_distinct_rows(request, code, order):
    spec = request.getfixturevalue(code).qc
    var, chk = group_table(spec)
    assert order == spec.p * spec.j * spec.k_blocks
    assert var.shape == (order, spec.n) and chk.shape == (order, spec.m)
    assert (np.sort(var, axis=1) == np.arange(spec.n)).all()
    assert (np.sort(chk, axis=1) == np.arange(spec.m)).all()
    assert len(np.unique(np.hstack([var, chk]), axis=0)) == order


@CODES
def test_group_table_is_the_closure_of_sigma_rho_and_pi(request, code, order):
    spec = request.getfixturevalue(code).qc
    var, chk = group_table(spec)
    rows = {(tuple(v), tuple(c)) for v, c in zip(var.tolist(), chk.tolist())}
    closure = _closure(_generators(spec))
    assert len(closure) == order and rows == closure


@CODES
def test_every_group_table_row_maps_H_onto_itself(request, code, order):
    H = request.getfixturevalue(code)
    for var, chk in zip(*group_table(H.qc)):
        image = np.empty_like(H.bits)
        image[np.ix_(chk, var)] = H.bits  # entry (r, c) moves to (chk[r], var[c])
        assert np.array_equal(image, H.bits)


@CODES
def test_group_table_rows_are_the_orbit_index_inverses(request, code, order):
    spec = request.getfixturevalue(code).qc
    p, j, k = spec.p, spec.j, spec.k_blocks
    var, chk = group_table(spec)
    # rows (0, s, u) are the first j*p; rows (t, 0, u) are (t*j)*p + u
    assert np.array_equal(_orbit_index(p, j, spec.b), np.argsort(chk[:j * p], axis=1))
    no_rho = (np.arange(k)[:, None] * j * p + np.arange(p)).ravel()
    assert np.array_equal(_orbit_index(p, k, spec.a), np.argsort(var[no_rho], axis=1))


@CODES
def test_sigma_rows_invert_to_the_shift_pair_inverses(request, code, order):
    spec = request.getfixturevalue(code).qc
    var, _ = group_table(spec)
    idx = np.arange(spec.n)
    for delta in range(spec.p):
        # the inverse of sigma^delta on the variables: (t, i) -> (t, i - delta)
        want = idx // spec.p * spec.p + (idx - delta) % spec.p
        assert np.array_equal(np.argsort(var[delta]), want)
        assert np.array_equal(shift_pair(spec, delta).var.inverse().mapping, want)


@CODES
def test_necklace_inverse_shifts_are_the_group_tables_sigma_rows(request, code, order):
    # the auto-list ensemble reads sigma^-delta from the necklace formula;
    # it is the group table's row -delta mod p
    spec = request.getfixturevalue(code).qc
    deltas = np.arange(spec.p)
    assert np.array_equal(_necklace_rows(spec.k_blocks, spec.p, 0, 1, -deltas),
                          group_table(spec)[0][-deltas % spec.p])
