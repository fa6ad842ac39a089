"""Reference computations the benchmark checks synq's outputs against.

They are written here from their definitions and share no code with the
package: the radius-1 frame-error rate straight from the binomial terms,
the least member of a check-coloring orbit by trying every group element,
a scalar cross-check of the batch bit-flipping decoder, and central
finite differences of the TD loss.
"""

from __future__ import annotations

import math

import numpy as np


def radius1_fer(n: int, rho: float) -> float:
    """Frame-error rate of a decoder that corrects exactly the errors of
    weight <= 1: 1 - (1-rho)^n - n rho (1-rho)^(n-1)."""
    return 1.0 - (1.0 - rho) ** n - n * rho * (1.0 - rho) ** (n - 1)


def binomial_sigma(p: float, frames: int) -> float:
    """Standard deviation of a frame-error-rate estimate over `frames` frames."""
    return math.sqrt(p * (1.0 - p) / frames)


# ---------------------------------------------------------------------------
# orbit minimum by brute force
# ---------------------------------------------------------------------------


def _group_mappings(p: int, j: int, b: int) -> list[np.ndarray]:
    """Bead maps of sigma^u rho^s: (c, i) -> (c + s mod j, b^s i + u mod p)."""
    beads = np.arange(j * p)
    c, i = beads // p, beads % p
    maps = []
    for s in range(j):
        for u in range(p):
            maps.append(((c + s) % j) * p + (pow(b, s, p) * i + u) % p)
    return maps


def _lex_keys(W: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as fixed-length byte strings in lexicographic order.

    np.packbits puts bead 0 in the most significant bit, so comparing the
    packed bytes compares the bead sequences lexicographically.
    """
    packed = np.packbits(W, axis=1)
    return packed.view(f"S{packed.shape[1]}").ravel()


def orbit_minima(V: np.ndarray, p: int, j: int, b: int) -> np.ndarray:
    """Lexicographically least member of each row's orbit, over all j*p
    elements sigma^u rho^s.  A group element moves bead k to mapping[k]."""
    V = np.asarray(V, dtype=np.uint8)
    best = V.copy()
    best_key = _lex_keys(best)
    for mapping in _group_mappings(p, j, b):
        W = np.empty_like(V)
        W[:, mapping] = V
        key = _lex_keys(W)
        better = key < best_key
        best[better] = W[better]
        best_key[better] = key[better]
    return best


# ---------------------------------------------------------------------------
# bit flipping: batch against scalar
# ---------------------------------------------------------------------------


def random_patterns(rng: np.random.Generator, n: int, weight: int,
                    count: int) -> np.ndarray:
    """`count` (count, n) rows, each with `weight` distinct ones."""
    X = np.zeros((count, n), dtype=np.uint8)
    for row in X:
        row[rng.choice(n, size=weight, replace=False)] = 1
    return X


def bf_batch_mismatches(decoders, H, X: np.ndarray, cfg) -> list[int]:
    """Rows where bf_decode_batch disagrees with bit_flipping_decode on the
    flip set, the convergence flag or the iteration count."""
    flips, conv, iters = decoders.bf_decode_batch(X, H, cfg)
    bad = []
    for r, row in enumerate(X):
        y = sum(1 << int(i) for i in np.flatnonzero(row))
        ref = decoders.bit_flipping_decode(y, H, cfg)
        got = sum(1 << int(i) for i in np.flatnonzero(flips[r]))
        if (got, bool(conv[r]), int(iters[r])) != (ref.flips, ref.converged, ref.steps):
            bad.append(r)
    return bad


# ---------------------------------------------------------------------------
# TD-loss gradients by central differences
# ---------------------------------------------------------------------------


def gradient_mismatches(loss_fn, params: dict, grads: dict,
                        rng: np.random.Generator, per_tensor: int = 8,
                        eps: float = 1e-6, rtol: float = 1e-4,
                        atol: float = 1e-9) -> list[str]:
    """Compare analytic gradients with (f(x+eps) - f(x-eps)) / 2eps.

    Per tensor the largest-magnitude entries and as many random ones are
    probed.  `loss_fn()` re-evaluates the loss at the current parameters,
    which are perturbed in place and restored.
    """
    bad = []
    for name, g in grads.items():
        p = params[name]
        flat = np.abs(g).ravel()
        top = np.argsort(-flat, kind="stable")[:per_tensor // 2]
        rand = rng.choice(flat.size, size=min(per_tensor // 2, flat.size),
                          replace=False)
        for fi in np.unique(np.concatenate([top, rand])):
            idx = np.unravel_index(fi, p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            up = loss_fn()
            p[idx] = orig - eps
            down = loss_fn()
            p[idx] = orig
            fd = (up - down) / (2 * eps)
            if abs(fd - g[idx]) > rtol * max(abs(fd), abs(g[idx])) + atol:
                bad.append(f"{name}{tuple(int(k) for k in idx)}: "
                           f"analytic {g[idx]:.6e} vs difference {fd:.6e}")
    return bad
