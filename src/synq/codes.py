"""Binary linear block codes represented by their parity-check matrices.

Bit-vector convention used throughout the library: a length-L binary vector
is packed into a Python int whose bit i (``1 << i``) is component i, which is
numpy's ``bitorder="little"`` over little-endian bytes.  XOR is vector
addition over GF(2), ``int.bit_count()`` is the Hamming weight.  The
syndrome of an error pattern e is the XOR of the parity-check columns
selected by the set bits of e.  This module is the only place that converts:
`bits_to_int` and `int_to_bits` between packed ints and 0/1 vectors, and
`ParityCheckMatrix.syndrome_batch` from a (B, n) pattern matrix to its
(B, m) syndromes; every other module calls them.

Quasi-cyclic constructions place a p x p circulant permutation block at
block position (s, t), the identity cyclically shifted by b^s * a^t mod p,
where a has multiplicative order k_blocks and b has order j modulo the
prime p.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# packed bit vectors
# ---------------------------------------------------------------------------


def bits_to_int(bits) -> int:
    """Pack a 0/1 sequence (index 0 = LSB, nonzero = 1) into an int."""
    packed = np.packbits(np.asarray(bits) != 0, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_bits(x: int, length: int) -> np.ndarray:
    """Unpack an int into a flat uint8 vector of exactly `length` entries."""
    if x < 0 or x >> length:
        raise ValueError(f"value does not fit in {length} bits")
    raw = np.frombuffer(x.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def support(x: int):
    """Indices of the set bits, ascending."""
    return np.flatnonzero(int_to_bits(x, x.bit_length())).tolist()


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a matrix given as an iterable of row ints."""
    pivots = []
    rank = 0
    for row in rows:
        for piv in pivots:
            row = min(row, row ^ piv)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# parity-check matrices
# ---------------------------------------------------------------------------


class ParityCheckMatrix:
    """An m x n binary parity-check matrix with packed-column accessors.

    `cols_int[i]` is column i packed into an int (bit r = row r), so the
    syndrome of an error pattern is the XOR of the columns at its support.
    """

    def __init__(self, bits: np.ndarray, qc: "QcLdpcSpec | None" = None):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.size == 0:
            raise ValueError("parity-check matrix must be 2-D and non-empty")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("parity-check matrix entries must be 0/1")
        self.bits = bits.copy()
        self.bits.flags.writeable = False
        self.m, self.n = bits.shape
        self.cols_int = tuple(bits_to_int(self.bits[:, i]) for i in range(self.n))
        self.rows_int = tuple(bits_to_int(self.bits[r, :]) for r in range(self.m))
        self.qc = qc
        self._rank: int | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = gf2_rank(self.rows_int)
        return self._rank

    @property
    def k(self) -> int:
        """Dimension of the code: n - rank(H)."""
        return self.n - self.rank

    @property
    def code_hash(self) -> str:
        """SHA-256 over the dimensions and row-packed bits; identifies the code."""
        h = hashlib.sha256()
        h.update(f"{self.m}x{self.n}:".encode())
        h.update(np.packbits(self.bits, axis=None).tobytes())
        return h.hexdigest()

    def syndrome(self, pattern: int) -> int:
        """Syndrome (packed int) of a packed error pattern / received word."""
        if pattern < 0 or pattern >> self.n:
            raise ValueError("pattern length does not match code length")
        s = 0
        cols = self.cols_int
        i = 0
        while pattern:
            block = pattern & 0xFFFFFFFF
            while block:
                low = block & -block
                s ^= cols[i + low.bit_length() - 1]
                block ^= low
            pattern >>= 32
            i += 32
        return s

    @functools.cached_property
    def _HT(self) -> np.ndarray:
        """H^T in float32, built on first use; every GF(2) product sum is exact."""
        return self.bits.T.astype(np.float32)

    def syndrome_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Syndromes of a (B, n) uint8 pattern matrix, as a (B, m) uint8 matrix."""
        sums = (patterns.astype(np.float32) @ self._HT).astype(np.int32) & 1
        return sums.astype(np.uint8)

    def __eq__(self, other):
        return isinstance(other, ParityCheckMatrix) and np.array_equal(
            self.bits, other.bits
        )

    def __repr__(self):
        return f"ParityCheckMatrix({self.m}x{self.n}, rank={self.rank})"


# ---------------------------------------------------------------------------
# quasi-cyclic LDPC construction
# ---------------------------------------------------------------------------


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def multiplicative_order(a: int, p: int) -> int:
    if math.gcd(a, p) != 1:
        raise ValueError(f"{a} is not a unit mod {p}")
    x, order = a % p, 1
    while x != 1:
        x = x * a % p
        order += 1
    return order


@dataclass(frozen=True)
class QcLdpcSpec:
    """Parameters of a (j, k_blocks)-regular quasi-cyclic LDPC code.

    p must be prime, a must have multiplicative order k_blocks mod p, b must
    have order j mod p, and a != b.  The resulting H is (j*p) x (k_blocks*p).
    """

    p: int
    j: int
    k_blocks: int
    a: int
    b: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not (1 <= self.a < self.p and 1 <= self.b < self.p):
            raise ValueError("a, b must lie in [1, p)")
        if self.a == self.b:
            raise ValueError("a and b must differ")
        if multiplicative_order(self.a, self.p) != self.k_blocks:
            raise ValueError(
                f"a={self.a} has order {multiplicative_order(self.a, self.p)} "
                f"mod {self.p}, need {self.k_blocks}"
            )
        if multiplicative_order(self.b, self.p) != self.j:
            raise ValueError(
                f"b={self.b} has order {multiplicative_order(self.b, self.p)} "
                f"mod {self.p}, need {self.j}"
            )

    @property
    def m(self) -> int:
        return self.j * self.p

    @property
    def n(self) -> int:
        return self.k_blocks * self.p


#: the (155, 64) girth-8 quasi-cyclic code with j=3, k=5, p=31 (Tanner code)
TANNER_SPEC = QcLdpcSpec(p=31, j=3, k_blocks=5, a=2, b=5)


def build_qc_ldpc(spec: QcLdpcSpec) -> ParityCheckMatrix:
    """Build H from circulant permutation blocks; verifies regularity."""
    p, j, kb = spec.p, spec.j, spec.k_blocks
    H = np.zeros((j * p, kb * p), dtype=np.uint8)
    for s in range(j):
        for t in range(kb):
            shift = pow(spec.b, s, p) * pow(spec.a, t, p) % p
            rows = s * p + np.arange(p)
            cols = t * p + (np.arange(p) + shift) % p
            H[rows, cols] = 1
    if not (H.sum(axis=1) == kb).all() or not (H.sum(axis=0) == j).all():
        raise ValueError("constructed matrix is not (j, k_blocks)-regular")
    return ParityCheckMatrix(H, qc=spec)


def random_parity_check(
    n: int, m: int, seed: int, col_weight: int | None = None
) -> ParityCheckMatrix:
    """Random m x n parity-check matrix (no distance guarantees).

    With col_weight given, each column gets exactly that many ones at random
    rows; otherwise entries are iid Bernoulli(1/2).  Zero rows/columns are
    resampled.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0DE], np.uint64)))
    for _ in range(1000):
        if col_weight is None:
            H = (rng.random((m, n)) < 0.5).astype(np.uint8)
        else:
            H = np.zeros((m, n), dtype=np.uint8)
            for i in range(n):
                H[rng.choice(m, col_weight, replace=False), i] = 1
        if (H.sum(axis=0) > 0).all() and (H.sum(axis=1) > 0).all():
            return ParityCheckMatrix(H)
    raise RuntimeError("failed to sample a matrix without zero rows/columns")


# ---------------------------------------------------------------------------
# Hamming-ball syndrome enumeration
# ---------------------------------------------------------------------------


def ball_size(n: int, w: int) -> int:
    return sum(math.comb(n, i) for i in range(w + 1))


def ball_syndrome_weights(
    H: ParityCheckMatrix, w: int, budget: int = 2_000_000
) -> dict[int, int]:
    """Map syndrome -> smallest error weight <= w producing it.

    Enumerates every error pattern of weight 0..w (ball_size(n, w) patterns,
    refused above `budget`).  The all-zero syndrome maps to weight 0.
    """
    if w < 0 or w > H.n:
        raise ValueError("weight radius out of range")
    total = ball_size(H.n, w)
    if total > budget:
        raise ValueError(f"ball has {total} patterns, exceeds budget {budget}")
    cols = H.cols_int
    weights = {0: 0}
    for u in range(1, w + 1):
        for combo in itertools.combinations(range(H.n), u):
            s = 0
            for i in combo:
                s ^= cols[i]
            weights.setdefault(s, u)
    collisions = total - len(weights)
    if collisions:
        log.warning(
            "syndrome ball w=%d: %d pattern collisions (%d patterns, %d syndromes)",
            w, collisions, total, len(weights),
        )
    return weights


def hamming_ball_syndromes(
    H: ParityCheckMatrix, w: int, budget: int = 2_000_000
) -> frozenset[int]:
    """The set S(w) of syndromes reachable from error patterns of weight <= w."""
    return frozenset(ball_syndrome_weights(H, w, budget))


# ---------------------------------------------------------------------------
# alist I/O
# ---------------------------------------------------------------------------


def save_alist(H: ParityCheckMatrix, path) -> None:
    """Write H in alist adjacency format (1-based indices, unpadded)."""
    col_deg = H.bits.sum(axis=0)
    row_deg = H.bits.sum(axis=1)
    lines = [
        f"{H.n} {H.m}",
        f"{col_deg.max()} {row_deg.max()}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for i in range(H.n):
        lines.append(" ".join(str(r + 1) for r in np.flatnonzero(H.bits[:, i])))
    for r in range(H.m):
        lines.append(" ".join(str(i + 1) for i in np.flatnonzero(H.bits[r, :])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_alist(path) -> ParityCheckMatrix:
    """Read an alist file; accepts zero-padded adjacency rows."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    try:
        n, m = (int(v) for v in rows[0])
        col_deg = [int(v) for v in rows[2]]
        row_deg = [int(v) for v in rows[3]]
        if len(col_deg) != n or len(row_deg) != m:
            raise ValueError("degree list length mismatch")
        H = np.zeros((m, n), dtype=np.uint8)
        for i in range(n):
            entries = [int(v) for v in rows[4 + i] if int(v) != 0]
            if len(entries) != col_deg[i]:
                raise ValueError(f"column {i} degree mismatch")
            for r in entries:
                if not 1 <= r <= m:
                    raise ValueError(f"row index {r} out of range")
                H[r - 1, i] = 1
        for r in range(m):
            entries = [int(v) for v in rows[4 + n + r] if int(v) != 0]
            if sorted(entries) != [i + 1 for i in np.flatnonzero(H[r, :])]:
                raise ValueError(f"row {r} adjacency inconsistent with columns")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed alist file {path}: {exc}") from None
    return ParityCheckMatrix(H)
