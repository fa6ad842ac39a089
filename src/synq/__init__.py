"""Reinforcement-learning syndrome decoding for binary linear block codes.

The package is organized around packed-integer syndromes: a length-m binary
syndrome is the Python int whose bit i is check i.  Everything else --
training, decoding, enumeration, simulation -- is built on that convention.

Modules
-------
codes         parity-check matrices, quasi-cyclic construction, alist I/O
channel       binary symmetric channel; frame i depends only on (seed, i)
mdp           the syndrome-decoding decision process and reward variants
tabular       Q-learning on sparse syndrome tables, the QTAB payload
neural        from-scratch MLP Q-network, DQN training, the QNET payload
modelfile     the one model-file container: frame, text twin, checked reader
decoders      greedy / action-list / bit-flipping / feedback / ensemble
automorphism  the code's automorphism table, orbit counting, canonical forms
analysis      performance bounds, exhaustive sweeps, syndrome classification
sim           Monte Carlo FER/BER harness with reproducible parallelism
cli           the ``synq`` command-line front end
"""

from .channel import BscConfig, sample_error
from .codes import (TANNER_SPEC, ParityCheckMatrix, QcLdpcSpec, ball_size,
                    bits_to_int, build_qc_ldpc, hamming_ball_syndromes,
                    int_to_bits, load_alist, random_parity_check, save_alist,
                    support)
from .decoders import (BeamConfig, BitFlipConfig, CandidatePath, DecodeResult,
                       action_list_decode, automorphism_list_decode,
                       bf_decode_batch, bit_flipping_decode, feedback_decode,
                       greedy_decode)
from .mdp import (VARIANTS, MdpConfig, SyndromeMdp, SyndromeSets, episode,
                  finite_horizon_q, transition)
from .neural import DqnConfig, MlpNetwork, load_network, save_network, train_dqn
from .tabular import (QTable, TrainConfig, load_qtable, save_qtable, train_q)

__version__ = "0.1.0"

__all__ = [
    "BscConfig", "sample_error",
    "TANNER_SPEC", "ParityCheckMatrix", "QcLdpcSpec",
    "ball_size", "bits_to_int", "build_qc_ldpc",
    "hamming_ball_syndromes", "int_to_bits", "load_alist",
    "random_parity_check", "save_alist", "support",
    "BeamConfig", "BitFlipConfig", "CandidatePath", "DecodeResult",
    "action_list_decode", "automorphism_list_decode", "bf_decode_batch",
    "bit_flipping_decode", "feedback_decode", "greedy_decode",
    "VARIANTS", "MdpConfig", "SyndromeMdp", "SyndromeSets", "episode",
    "finite_horizon_q", "transition",
    "DqnConfig", "MlpNetwork", "load_network", "save_network", "train_dqn",
    "QTable", "TrainConfig", "load_qtable", "save_qtable", "train_q",
    "__version__",
]
