"""Automorphisms of quasi-cyclic codes and necklace-orbit machinery.

A (j, k_blocks)-regular quasi-cyclic code has j check and k_blocks variable
necklaces of p beads each, indexed block-major: bead (c, i) -> c*p + i.  Its
group G = <sigma, rho, pi> = C_p x| (C_j x C_k_blocks) acts on both at once:
sigma^u rho^s pi^t maps variable bead (c, i) to (c+t, b^s a^t i + u) and check
bead (r, i) to (r+s, b^s a^t i + u).  One closed formula, `_necklace_rows`,
writes elements as index rows; `group_table` stacks all of G once per code,
and each matched pair (var, chk), syndrome(var(e)) = chk(syndrome(e)), is one
of its rows.  On one side alone, C_p x| C_blocks is the group of the orbit
counts and canonical forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import (ParityCheckMatrix, QcLdpcSpec, bits_to_int, has_order, int_to_bits,
                    is_prime)

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


def _necklace_rows(blocks: int, p: int, adv, mult, add) -> np.ndarray:
    """(c, i) -> (c + adv mod blocks, mult*i + add mod p), block-major: one
    row of images per element of the broadcast adv, mult, add (scalars: one)."""
    c, i = np.divmod(np.arange(blocks * p), p)
    adv, mult, add = (np.asarray(x, dtype=np.int64)[..., None] for x in (adv, mult, add))
    return (c + adv) % blocks * p + (mult * i + add) % p


# ---------------------------------------------------------------------------
# the group: elements of C_p x| C_j, the code's table and its matched pairs
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
        if pow(self.b, self.j, self.p) != 1 % self.p:
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

    def check_perm(self) -> IndexPermutation:
        """Action on the j*p check beads: (c, i) -> (c+s, b^s i + u)."""
        return IndexPermutation(_necklace_rows(self.j, self.p, self.s,
                                               pow(self.b, self.s, self.p), self.u))

    def variable_perm(self, k_blocks: int) -> IndexPermutation:
        """Matched action on the k_blocks*p variable beads: (t, i) -> (t, b^s i + u)."""
        return IndexPermutation(_necklace_rows(k_blocks, self.p, 0,
                                               pow(self.b, self.s, self.p), self.u))


@dataclass(frozen=True)
class AutomorphismPair:
    """Variable/check permutations with syndrome(var(e)) = chk(syndrome(e))."""

    var: IndexPermutation
    chk: IndexPermutation


@functools.lru_cache(maxsize=16)
def group_table(spec: QcLdpcSpec) -> tuple[np.ndarray, np.ndarray]:
    """(var, chk): every element of G as (p*j*k_blocks, n) and (p*j*k_blocks, m)
    index rows; row (t*j + s)*p + u is sigma^u rho^s pi^t."""
    p, j, k = spec.p, spec.j, spec.k_blocks
    t, s, u = (x.ravel() for x in np.indices((k, j, p)))
    mult = np.array([[pow(spec.a, x, p) * pow(spec.b, y, p) % p for y in range(j)]
                     for x in range(k)])[t, s]
    var, chk = _necklace_rows(k, p, t, mult, u), _necklace_rows(j, p, s, mult, u)
    var.flags.writeable = chk.flags.writeable = False
    return var, chk


def _pair(spec: QcLdpcSpec, u: int = 0, s: int = 0, t: int = 0) -> AutomorphismPair:
    """The matched pair of sigma^u rho^s pi^t, read from the group table."""
    row = (t * spec.j + s) * spec.p + u
    return AutomorphismPair(*(IndexPermutation(side[row]) for side in group_table(spec)))


def variable_shift(spec: QcLdpcSpec, delta: int) -> IndexPermutation:
    """Shift every variable necklace by delta: (t, i) -> (t, i + delta)."""
    return shift_pair(spec, delta).var


def variable_mult(spec: QcLdpcSpec) -> IndexPermutation:
    """pi: (t, i) -> (t+1 mod k_blocks, a*i mod p) on variable nodes."""
    return mult_a_pair(spec).var


def shift_pair(spec: QcLdpcSpec, delta: int) -> AutomorphismPair:
    """sigma^delta: cyclic shift of all necklaces on both sides by delta."""
    return _pair(spec, u=delta % spec.p)


def mult_a_pair(spec: QcLdpcSpec) -> AutomorphismPair:
    """pi paired with its induced check action (s, i) -> (s, a*i)."""
    return _pair(spec, t=1 % spec.k_blocks)


def mult_b_pair(spec: QcLdpcSpec) -> AutomorphismPair:
    """rho paired with its induced variable action (t, i) -> (t, b*i)."""
    return _pair(spec, s=1 % spec.j)


def element_pair(spec: QcLdpcSpec, g: GroupElement) -> AutomorphismPair:
    """Matched pair for a group element sigma^u rho^s of the check-side group."""
    if (g.p, g.j, g.b) != (spec.p, spec.j, spec.b):
        raise ValueError("group element does not match the code spec")
    return _pair(spec, u=g.u, s=g.s)


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
    if b is not None and j > 1 and not has_order(b % p, j, p):
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


@functools.lru_cache(maxsize=16)
def _orbit_index(p: int, blocks: int, mult: int) -> np.ndarray:
    """Gather indices for the whole orbit of a block-major coloring v: row
    s*p + u inverts sigma^u rho^s, (c, i) -> (c - s, m (i - u)) with m =
    mult^-s = mult^(blocks-s) mod p, so v[index] lists the orbit as rows."""
    s, u = (x.ravel() for x in np.indices((blocks, p)))
    m = np.array([pow(mult, blocks - e, p) for e in range(blocks)])[s]
    return _necklace_rows(blocks, p, -s, m, -u * m)


def _lexmin_row(M: np.ndarray) -> int:
    """Index of the lexicographically least row of a 0/1 matrix."""
    packed = np.packbits(M, axis=1)  # the first entry is the most significant
    words = np.zeros((M.shape[0], -(-packed.shape[1] // 8)), dtype=">u8")
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return int(np.lexsort(words.T[::-1])[0])


def canonical_representative(
    bits, p: int, blocks: int, mult: int
) -> np.ndarray:
    """Lexicographically least orbit member under C_p x| C_blocks.

    `bits` is a block-major 0/1 vector of length blocks*p; `mult` is the
    block-advance multiplier (b on the check side, a on the variable side).
    Lists the blocks*p orbit members as the rows of one matrix and picks the
    least: O((blocks*p)^2) time and memory, all of it in numpy.
    """
    v = np.asarray(bits, dtype=np.uint8)
    if blocks < 1 or p < 1:
        raise ValueError("need blocks >= 1 and p >= 1")
    if v.ndim != 1 or v.size != blocks * p:
        raise ValueError("coloring length must equal blocks*p")
    if (v > 1).any():
        raise ValueError("coloring entries must be 0/1")
    if pow(mult, blocks, p) != 1 % p:
        raise ValueError("multiplier^blocks != 1 mod p")
    orbit = v[_orbit_index(p, blocks, mult)]
    return orbit[_lexmin_row(orbit)].copy()
