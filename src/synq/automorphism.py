"""Automorphisms of quasi-cyclic codes and necklace-orbit machinery.

The check nodes of a (j, k_blocks)-regular quasi-cyclic code form j
necklaces of p beads each, indexed block-major: bead (s, i) -> s*p + i.
Two commuting families act on them:

  sigma : (s, i) -> (s, i+1 mod p)        simultaneous rotation
  rho   : (s, i) -> (s+1 mod j, b*i mod p)  block advance with multiplier

with the relation rho sigma rho^-1 = sigma^b, so G = <sigma, rho> is the
semidirect product C_p x| C_j of order j*p.  The variable nodes carry the
mirror-image structure with k_blocks necklaces and multiplier a.

Every code automorphism used here is a matched pair (var, chk) of index
permutations satisfying syndrome(var(e)) = chk(syndrome(e)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import (ParityCheckMatrix, QcLdpcSpec, bits_to_int, int_to_bits, is_prime,
                    multiplicative_order)

# ---------------------------------------------------------------------------
# index permutations
# ---------------------------------------------------------------------------


class IndexPermutation:
    """A bijection on {0..size-1}; mapping[i] is the image of index i."""

    def __init__(self, mapping):
        m = np.asarray(mapping, dtype=np.int64)
        if m.ndim != 1:
            raise ValueError("mapping must be 1-D")
        if not np.array_equal(np.sort(m), np.arange(m.size)):
            raise ValueError("mapping is not a bijection")
        self.mapping = m
        self.mapping.flags.writeable = False
        self.size = m.size

    def apply_bits(self, v: np.ndarray) -> np.ndarray:
        """Move the value at index i to index mapping[i]."""
        v = np.asarray(v)
        if v.shape[-1] != self.size:
            raise ValueError("vector length does not match permutation size")
        out = np.empty_like(v)
        out[..., self.mapping] = v
        return out

    def apply_int(self, x: int) -> int:
        """Permute the set bits of a packed vector."""
        return bits_to_int(self.apply_bits(int_to_bits(x, self.size)))

    def compose(self, other: "IndexPermutation") -> "IndexPermutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return IndexPermutation(self.mapping[other.mapping])

    def inverse(self) -> "IndexPermutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.size)
        return IndexPermutation(inv)

    def __eq__(self, other):
        return isinstance(other, IndexPermutation) and np.array_equal(
            self.mapping, other.mapping
        )

    def __repr__(self):
        return f"IndexPermutation({self.mapping.tolist()})"


def _necklace_perm(blocks: int, p: int, adv: int, mult: int, add: int) -> IndexPermutation:
    """(c, i) -> (c + adv mod blocks, mult*i + add mod p), block-major."""
    idx = np.arange(blocks * p)
    c, i = idx // p, idx % p
    return IndexPermutation(((c + adv) % blocks) * p + (mult * i + add) % p)


# ---------------------------------------------------------------------------
# the group  C_p x| C_j  of check-side symmetries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """sigma^u rho^s in C_p x| C_j with rho sigma rho^-1 = sigma^b."""

    u: int
    s: int
    p: int
    j: int
    b: int

    def __post_init__(self):
        if not (0 <= self.u < self.p and 0 <= self.s < self.j):
            raise ValueError("element exponents out of range")
        if pow(self.b, self.j, self.p) != 1:
            raise ValueError("b^j != 1 mod p")

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Group product self * other (apply other first)."""
        if (self.p, self.j, self.b) != (other.p, other.j, other.b):
            raise ValueError("elements from different groups")
        u = (self.u + other.u * pow(self.b, self.s, self.p)) % self.p
        return GroupElement(u, (self.s + other.s) % self.j, self.p, self.j, self.b)

    def inverse(self) -> "GroupElement":
        s_inv = (-self.s) % self.j
        b_pow = pow(self.b, s_inv, self.p)
        return GroupElement((-self.u * b_pow) % self.p, s_inv, self.p, self.j, self.b)

    @classmethod
    def identity(cls, p: int, j: int, b: int) -> "GroupElement":
        return cls(0, 0, p, j, b)

    def check_perm(self) -> IndexPermutation:
        """Action on the j*p check beads: (c, i) -> (c+s, b^s i + u)."""
        return _necklace_perm(self.j, self.p, self.s, pow(self.b, self.s, self.p), self.u)

    def variable_perm(self, k_blocks: int) -> IndexPermutation:
        """Matched action on the k_blocks*p variable beads: (t, i) -> (t, b^s i + u)."""
        return _necklace_perm(k_blocks, self.p, 0, pow(self.b, self.s, self.p), self.u)


# ---------------------------------------------------------------------------
# matched automorphism pairs for a QC parity-check matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismPair:
    """Variable/check permutations with syndrome(var(e)) = chk(syndrome(e))."""

    var: IndexPermutation
    chk: IndexPermutation


def variable_shift(spec: QcLdpcSpec, delta: int) -> IndexPermutation:
    """Shift every variable necklace by delta: (t, i) -> (t, i + delta)."""
    return _necklace_perm(spec.k_blocks, spec.p, 0, 1, delta % spec.p)


def check_shift(spec: QcLdpcSpec, delta: int) -> IndexPermutation:
    return _necklace_perm(spec.j, spec.p, 0, 1, delta % spec.p)


def variable_mult(spec: QcLdpcSpec) -> IndexPermutation:
    """pi: (t, i) -> (t+1 mod k_blocks, a*i mod p) on variable nodes."""
    return _necklace_perm(spec.k_blocks, spec.p, 1, spec.a, 0)


def check_mult(spec: QcLdpcSpec) -> IndexPermutation:
    """rho: (s, i) -> (s+1 mod j, b*i mod p) on check nodes."""
    return _necklace_perm(spec.j, spec.p, 1, spec.b, 0)


def shift_pair(spec: QcLdpcSpec, delta: int) -> AutomorphismPair:
    """Cyclic shift of all necklaces on both sides by the same delta."""
    return AutomorphismPair(variable_shift(spec, delta), check_shift(spec, delta))


def mult_a_pair(spec: QcLdpcSpec) -> AutomorphismPair:
    """pi paired with its induced check action (s, i) -> (s, a*i)."""
    return AutomorphismPair(
        variable_mult(spec), _necklace_perm(spec.j, spec.p, 0, spec.a, 0)
    )


def mult_b_pair(spec: QcLdpcSpec) -> AutomorphismPair:
    """rho paired with its induced variable action (t, i) -> (t, b*i)."""
    return AutomorphismPair(
        _necklace_perm(spec.k_blocks, spec.p, 0, spec.b, 0), check_mult(spec)
    )


def element_pair(spec: QcLdpcSpec, g: GroupElement) -> AutomorphismPair:
    """Matched pair for a group element sigma^u rho^s of the check-side group."""
    if (g.p, g.j, g.b) != (spec.p, spec.j, spec.b):
        raise ValueError("group element does not match the code spec")
    return AutomorphismPair(g.variable_perm(spec.k_blocks), g.check_perm())


def verify_commutation(e: int, pair: AutomorphismPair, H: ParityCheckMatrix) -> bool:
    """Check syndrome(var(e)) == chk(syndrome(e)) for one error pattern."""
    lhs = H.syndrome(pair.var.apply_int(e))
    rhs = pair.chk.apply_int(H.syndrome(e))
    return lhs == rhs


# ---------------------------------------------------------------------------
# orbit counting (Burnside)
# ---------------------------------------------------------------------------


def burnside_count(j: int, p: int, b: int | None = None) -> int:
    """Number of orbits of 2-colorings of j p-bead necklaces under C_p x| C_j.

    Cycle-counting over the group gives
        (1/(j*p)) * [ 2^(j*p) + (p-1)*2^j
                      + p * sum_{d | j, d < j} phi(j/d) * 2^(p*d) ].
    Exact arbitrary-precision arithmetic; the division is checked to be exact.
    """
    if j < 1 or not is_prime(p):
        raise ValueError("need j >= 1 and p prime")
    if b is not None and j > 1 and multiplicative_order(b % p, p) != j:
        raise ValueError(f"b={b} does not have order {j} mod {p}")
    total = (1 << (j * p)) + (p - 1) * (1 << j)
    for d in range(1, j):
        if j % d == 0:
            total += p * _totient(j // d) * (1 << (p * d))
    count, rem = divmod(total, j * p)
    if rem:
        raise ArithmeticError("Burnside sum not divisible by group order")
    return count


def _totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


# ---------------------------------------------------------------------------
# canonical orbit representatives
# ---------------------------------------------------------------------------


def booth_least_rotation(seq) -> int:
    """Index k such that seq[k:] + seq[:k] is the lexicographic least rotation.

    Booth's failure-function scan, O(len(seq)).
    """
    s = list(seq)
    s += s
    n2 = len(s)
    f = [-1] * n2
    k = 0
    for jj in range(1, n2):
        sj = s[jj]
        i = f[jj - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = jj - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = jj
            f[jj - k] = -1
        else:
            f[jj - k] = i + 1
    return k % (n2 // 2)


def _least_period(seq) -> int:
    """Smallest cyclic period of seq (divides len(seq) when one exists)."""
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and all(seq[i] == seq[i % d] for i in range(n)):
            return d
    return n


def _min_simultaneous_rotation(w: np.ndarray, blocks: int, p: int) -> np.ndarray:
    """Min over u of the block-major vector with every block rotated by u.

    Rotation by u places old bead i at position i+u, so the rotated block is
    np.roll(block, u).  The first non-constant block pins u via Booth; when
    its least rotation is periodic (impossible for non-constant blocks at
    prime p) the survivors are compared over the remaining blocks.
    """
    rows = w.reshape(blocks, p)
    pivot = next((c for c in range(blocks) if (rows[c] != rows[c, 0]).any()), None)
    if pivot is None:
        return w.copy()
    k = booth_least_rotation(rows[pivot].tolist())
    us = [(-k) % p]
    d = _least_period(np.roll(rows[pivot], -k).tolist())
    if d < p:
        us = [(-k - t * d) % p for t in range(p // d)]
    best = None
    for u in us:
        cand = np.concatenate([np.roll(row, u) for row in rows])
        key = cand.tobytes()
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def canonical_representative(
    bits, p: int, blocks: int, mult: int
) -> np.ndarray:
    """Lexicographically least orbit member under C_p x| C_blocks.

    `bits` is a block-major 0/1 vector of length blocks*p; `mult` is the
    block-advance multiplier (b on the check side, a on the variable side).
    Cost O(blocks^2 * p): one Booth scan per block-advance coset.
    """
    v = np.asarray(bits, dtype=np.uint8)
    if v.ndim != 1 or v.size != blocks * p:
        raise ValueError("coloring length must equal blocks*p")
    if not np.isin(v, (0, 1)).all():
        raise ValueError("coloring entries must be 0/1")
    if pow(mult, blocks, p) != 1:
        raise ValueError("multiplier^blocks != 1 mod p")
    best = None
    for s in range(blocks):
        perm = _necklace_perm(blocks, p, s, pow(mult, s, p), 0)
        w = np.empty_like(v)
        w[perm.mapping] = v
        cand = _min_simultaneous_rotation(w, blocks, p)
        key = cand.tobytes()
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]
