import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synq.automorphism import (GroupElement, IndexPermutation,
                               booth_least_rotation, burnside_count,
                               canonical_representative, element_pair,
                               mult_a_pair, mult_b_pair, shift_pair,
                               variable_mult, variable_shift,
                               verify_commutation)
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
    ident = GroupElement.identity(7, 3, 2)
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


def test_booth_on_hand_cases():
    assert booth_least_rotation([1, 0, 1, 1]) == 1
    assert booth_least_rotation([0, 0, 0]) == 0
    assert booth_least_rotation("cba") == 2


def test_booth_matches_brute_force():
    rng = rng_for_tests(38)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        seq = [int(x) for x in rng.integers(0, 3, size=n)]
        k = booth_least_rotation(seq)
        rots = [tuple(seq[i:] + seq[:i]) for i in range(n)]
        assert tuple(seq[k:] + seq[:k]) == min(rots)


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
