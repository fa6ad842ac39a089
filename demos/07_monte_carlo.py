"""Monte Carlo FER/BER curves with reproducible early stopping.

Frame i of a run always draws its noise from a counter-based stream keyed by
(seed, i), so the sampled universe is fixed before any decoding happens:
serial and multi-process runs count exactly the same errors, and adding
frames never perturbs earlier ones.  Early stopping lands on batch
boundaries once enough frame errors have accumulated.
"""

import tempfile
import os

from synq import (TANNER_SPEC, BitFlipConfig, MdpConfig, SyndromeMdp,
                  SyndromeSets, build_qc_ldpc, hamming_ball_syndromes)
from synq.analysis import bdd_fer
from synq.sim import (BfDecoder, GreedyDecoder, SimConfig, run_curve,
                      run_point, write_curve)
from synq.tabular import BallSampler, TrainConfig, train_q

H = build_qc_ldpc(TANNER_SPEC)
rhos = (0.005, 0.01, 0.02)
cfg = SimConfig(rhos=rhos, max_frames=4000, target_errors=150, seed=0)

# Train the weight-1 policy once; at these crossover probabilities it should
# track the bounded-distance-decoding curve for t=1.
ball = frozenset(hamming_ball_syndromes(H, 1))
env = SyndromeMdp(H, MdpConfig(variant="truncated", w=1), SyndromeSets(ball=ball))
Q = train_q(env, TrainConfig(episodes=60_000, seed=0), BallSampler(H, 1))

curves = {
    "bit flipping": run_curve(BfDecoder(H, BitFlipConfig(tau=2, max_iter=30)), H.n, cfg),
    "greedy policy": run_curve(GreedyDecoder(Q, H), H.n, cfg),
}

print(f"{'rho':>6}  {'no decoder':>11}  {'bit flipping':>12}  "
      f"{'greedy policy':>13}  {'BDD t=1':>9}")
for i, rho in enumerate(rhos):
    # with no decoder a frame is in error exactly when it carries any error
    row = [bdd_fer(H.n, 0, rho)] + [curves[k][i].fer for k in curves]
    print(f"{rho:>6}  {row[0]:>11.4f}  {row[1]:>12.4f}  {row[2]:>13.4f}  "
          f"{bdd_fer(H.n, 1, rho):>9.4f}")

# Every point carries its sample size and a 95% interval.
pt = curves["greedy policy"][-1]
print(f"\nrho={pt.rho}: {pt.frame_errors}/{pt.frames} frame errors, "
      f"fer={pt.fer:.4f} in [{pt.ci_low:.4f}, {pt.ci_high:.4f}]")

# Same seed, two workers: identical counts, not merely close ones.
twin = run_point(GreedyDecoder(Q, H), H.n, 0.02,
                 SimConfig(max_frames=4000, target_errors=150, seed=0, workers=2))
print(f"serial == 2-worker counts: {(pt.frames, pt.frame_errors) == (twin.frames, twin.frame_errors)}")

# Curves serialize to CSV (or gnuplot tables) with full float precision.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "fer.csv")
    write_curve(curves["greedy policy"], path)
    with open(path) as fh:
        print("\n" + fh.read().rstrip())
