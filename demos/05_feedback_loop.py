"""Wrap a weak bit-flipping decoder in a learned feedback loop.

The parallel bit-flipping rule (flip every bit with >= tau unsatisfied
checks) is fast but gets stuck on small trapping patterns.  The feedback
decoder runs it, and whenever it fails, consults a policy for a single bit to
flip before trying again.  The reward the policy was trained on distinguishes
inner-decoder success, failure, and miscorrection, so it learns to steer the
word back into the correctable region without crossing into a wrong coset.
"""

import itertools

from synq import (BitFlipConfig, MdpConfig, QcLdpcSpec, SyndromeMdp,
                  SyndromeSets, bit_flipping_decode, build_qc_ldpc,
                  feedback_decode)
from synq.analysis import bounded_sets, feedback_guarantee
from synq.tabular import SetSampler, TrainConfig, train_q

H = build_qc_ldpc(QcLdpcSpec(p=7, j=3, k_blocks=3, a=2, b=4))
bf_cfg = BitFlipConfig(tau=1, max_iter=30)

# Classify every weight-<=2 syndrome by what the inner decoder does to its
# minimum-weight representative: correct it, fail, or land in a wrong coset.
sets = bounded_sets(H, 2, bf_cfg)
print(f"|S(2)| = {len(sets['ball'])}:  correct {len(sets['bcorrect'])}, "
      f"fail {len(sets['bfail'])}, miscorrect {len(sets['bmisc'])}")

# Train the outer policy only on syndromes where the inner decoder fails.
env = SyndromeMdp(H, MdpConfig(variant="bounded_feedback_miscorrect", w=2),
                  SyndromeSets(**sets))
Q = train_q(env, TrainConfig(episodes=50_000, seed=0),
            SetSampler(sorted(sets["bfail"])))
print(f"policy table: {len(Q)} states")


def phi(word):
    return bit_flipping_decode(word, H, bf_cfg)


# Exhaustive comparison over every weight 1 and 2 error pattern.
for w in (1, 2):
    errors = [sum(1 << i for i in c) for c in itertools.combinations(range(H.n), w)]
    alone = assisted = 0
    for e in errors:
        r0 = phi(e)
        alone += r0.converged and r0.flips == e
        r1 = feedback_decode(phi, Q, e, H)
        assisted += r1.converged and r1.flips == e
    print(f"weight {w}: bit flipping alone {alone}/{len(errors)}, "
          f"with feedback {assisted}/{len(errors)}")

# The guarantee implied by the decoder's failure/miscorrection geometry:
# failures start at weight 1, but no miscorrection exists inside the ball,
# so the bound is limited only by the enumeration radius.
g = feedback_guarantee(1, None, variant="theorem2", w_ball=2)
print(f"guaranteed correction radius within S(2): {g}")

# One failing frame in detail: the inner decoder stalls, so each outer round
# applies one policy flip and retries.
e = (1 << 4) | (1 << 17)
trace = []
res = feedback_decode(phi, Q, e, H, trace=trace)
print(f"stuck weight-2 error: outer rounds {res.steps}, "
      f"policy flips {[a for _, a, _ in trace]}, fixed {res.flips == e}")
