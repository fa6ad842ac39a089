"""Binary linear block codes represented by their parity-check matrices.

Bit-vector convention used throughout the library: a length-L binary vector
is packed into a Python int whose bit i (``1 << i``) is component i, which is
numpy's ``bitorder="little"`` over little-endian bytes.  XOR is vector
addition over GF(2), ``int.bit_count()`` is the Hamming weight.  The
syndrome of an error pattern e is the XOR of the parity-check columns
selected by the set bits of e.  This module holds the converters:
`bits_to_int` and `int_to_bits` between packed ints and 0/1 vectors,
`bits_to_ints` and `ints_to_bits` between packed ints and 0/1 matrices,
`packed_rows` from a 0/1 matrix to one bytes key per row, and
`ParityCheckMatrix.syndrome_batch` from (B, n) patterns to (B, m)
syndromes.  Batches of error patterns in the other modules, and the DQN
replay buffer's syndromes, are these uint8 rows.

Quasi-cyclic constructions place a p x p circulant permutation block at
block position (s, t), the identity cyclically shifted by b^s * a^t mod p,
where a has multiplicative order k_blocks and b has order j modulo the
prime p.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

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


def bits_to_ints(rows: np.ndarray) -> list[int]:
    """Pack each row of a 2-D 0/1 matrix into an int, as bits_to_int does.

    Rows of at most 64 columns are zero-padded to one little-endian 64-bit
    word each (one word also when there are no columns); wider rows are
    read from the bytes of `packed_rows`.
    """
    rows = np.asarray(rows)
    if rows.shape[1] > 64:
        return list(map(int.from_bytes, packed_rows(rows), repeat("little")))
    packed = np.packbits(rows != 0, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, 8 - packed.shape[1]))).view("<u8")[:, 0].tolist()


def packed_rows(rows: np.ndarray) -> list[bytes]:
    """Each row of a 2-D 0/1 matrix with at least one column as the bytes of
    its little-endian packing (bit i of the row is bit i % 8 of byte
    i // 8), so ``int.from_bytes(b, "little")`` is the row's bits_to_int;
    equal rows give equal bytes, a cheap dict key."""
    packed = np.packbits(np.asarray(rows) != 0, axis=1, bitorder="little")
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def ints_to_bits(xs, length: int) -> np.ndarray:
    """Unpack a sequence of ints into a (len(xs), length) uint8 matrix,
    row r holding int_to_bits(xs[r], length)."""
    nbytes = (length + 7) // 8
    try:
        raw = b"".join(x.to_bytes(nbytes, "little") for x in xs)
    except OverflowError:
        raise ValueError(f"value does not fit in {length} bits") from None
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(xs), nbytes)
    if length % 8 and (packed[:, -1] >> (length % 8)).any():  # bits past length
        raise ValueError(f"value does not fit in {length} bits")
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


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


def has_order(a: int, k: int, p: int) -> bool:
    """Whether a has multiplicative order exactly k modulo the prime p.

    Every order divides p - 1, so any other k is refused at once; else the
    order is k when a^k = 1 and a^(k/q) != 1 for each prime q dividing k.
    """
    if k < 1 or (p - 1) % k or pow(a, k, p) != 1:
        return False
    q, rest = 2, k
    while q * q <= rest:
        if rest % q == 0:
            if pow(a, k // q, p) == 1:
                return False
            while rest % q == 0:
                rest //= q
        q += 1
    return rest == 1 or pow(a, k // rest, p) != 1


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
        for name, x, k in (("a", self.a, self.k_blocks), ("b", self.b, self.j)):
            if not has_order(x, k, self.p):
                raise ValueError(f"{name}={x} does not have order {k} mod {self.p}")

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


def random_parity_check(n: int, m: int, seed: int) -> ParityCheckMatrix:
    """Random m x n parity-check matrix (no distance guarantees), uniform
    among those without a zero row or column.

    Entries are iid Bernoulli(1/2).  Vectors along the shorter side (the
    columns when m <= n) are redrawn one at a time until nonzero, which
    leaves them iid uniform nonzero; a zero vector along the longer side
    then resamples the whole matrix.  A draw with no zero vector is kept as
    drawn.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got {n!r}, {m!r}")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, 0xC0DE], np.uint64)))
    while True:
        H = (rng.random((m, n)) < 0.5).astype(np.uint8)
        short, long = (H.T, H) if m <= n else (H, H.T)  # views of H
        while (zero := np.flatnonzero(~short.any(axis=1))).size:
            short[zero] = rng.random((zero.size, short.shape[1])) < 0.5
        if long.any(axis=1).all():
            return ParityCheckMatrix(H)


# ---------------------------------------------------------------------------
# Hamming-ball syndrome enumeration
# ---------------------------------------------------------------------------


def ball_size(n: int, w: int) -> int:
    return sum(math.comb(n, i) for i in range(w + 1))


def ball_guard(n: int, w: int, budget: int) -> None:
    """Refuse a radius outside [0, n] or a ball of more than `budget` patterns."""
    if not 0 <= w <= n:
        raise ValueError(f"ball radius {w} outside [0, {n}]")
    total = ball_size(n, w)
    if total > budget:
        raise ValueError(f"ball has {total} patterns, exceeds budget {budget}")


def hamming_ball_syndromes(
    H: ParityCheckMatrix, w: int, budget: int = 2_000_000
) -> frozenset[int]:
    """The set S(w) of syndromes reachable from error patterns of weight <= w.

    Each weight-u syndrome extends a weight-(u-1) one by a column past the
    last index that one used.
    """
    ball_guard(H.n, w, budget)
    cols, n = H.cols_int, H.n
    levels, start = [[0]], [0]
    for u in range(1, w + 1):
        levels.append([s ^ c for s, t in zip(levels[-1], start) for c in cols[t:]])
        if u < w:
            start = [i for t in start for i in range(t + 1, n + 1)]
    return frozenset().union(*levels)


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
        if len(rows) < 4 + n + m:
            raise ValueError(f"{len(rows) - 4} adjacency lines, need {n + m}")
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
    except (IndexError, ValueError, MemoryError) as exc:  # MemoryError: absurd n, m
        raise ValueError(f"malformed alist file {path}: {exc}") from None
    return ParityCheckMatrix(H)
