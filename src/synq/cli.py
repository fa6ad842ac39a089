"""Command-line front end.

Subcommands: build-code, train-q, train-dqn, decode, simulate,
enum-failures, count-orbits, canonicalize, bdd, floor, policies, guarantee.

Configuration is plain JSON: pass --config file.json and/or explicit flags
(flags win).  Commands that write an artifact also write a sidecar
<out>.config.json with the fully resolved configuration.  Errors print a
single machine-parsable line ``{"error": "..."}`` to stderr and exit 2.

Bit positions and actions are 1-based on the command line; internally the
library is 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, automorphism, decoders, neural, sim, tabular
from .codes import (TANNER_SPEC, ParityCheckMatrix, QcLdpcSpec, build_qc_ldpc,
                    hamming_ball_syndromes, load_alist, save_alist, support)
from .mdp import MdpConfig, SyndromeMdp, SyndromeSets


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _config(args, keys=()) -> dict:
    """File config (if any) overridden by explicitly supplied flags."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "qc", None):
        cfg["code"] = list(args.qc)
    if getattr(args, "code", None):
        cfg["code"] = args.code
    cfg.setdefault("code", "tanner")
    return cfg


def _resolve_code(cfg) -> ParityCheckMatrix:
    code = cfg.get("code", "tanner")
    if isinstance(code, str) and code == "tanner":
        return build_qc_ldpc(TANNER_SPEC)
    if isinstance(code, str):
        return load_alist(code)
    if isinstance(code, (list, tuple)) and len(code) == 5:
        return build_qc_ldpc(QcLdpcSpec(*[int(v) for v in code]))
    raise ValueError(f"cannot interpret code spec {code!r}")


def _code_args(sub):
    sub.add_argument("--code", help="'tanner' or an alist file path")
    sub.add_argument("--qc", type=int, nargs=5, metavar=("P", "J", "K", "A", "B"),
                     help="quasi-cyclic parameters p j k_blocks a b")
    sub.add_argument("--config", help="JSON configuration file")


def _write_sidecar(out_path: str, cfg: dict) -> None:
    with open(out_path + ".config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(path: str, H: ParityCheckMatrix):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"QTAB":
        model = tabular.load_qtable(path)
    elif magic == b"QNET":
        model = neural.load_network(path)
    else:
        raise ValueError(f"{path}: unknown model format")
    got = model.meta.get("code_hash")
    if got != H.code_hash:
        raise ValueError(
            f"model {path} was trained for code {str(got)[:12]}..., "
            f"given code {H.code_hash[:12]}..."
        )
    return model


def _parse_error_pattern(text: str, n: int) -> int:
    """'17,42' (1-based positions), '0x1f' (packed hex), or '' / '0'."""
    text = text.strip()
    if text in ("", "0"):
        return 0
    if text.startswith("0x"):
        e = int(text, 16)
        if e >> n:
            raise ValueError("error pattern wider than the code length")
        return e
    e = 0
    for part in text.split(","):
        pos = int(part)
        if not 1 <= pos <= n:
            raise ValueError(f"bit position {pos} outside 1..{n}")
        e |= 1 << (pos - 1)
    return e


def _bf_config(cfg) -> decoders.BitFlipConfig:
    return decoders.BitFlipConfig(tau=int(cfg.get("tau", 2)),
                                  max_iter=int(cfg.get("bf_max_iter", 30)))


def _train_env(args, keys):
    """The config, and the training MDP it names with its sets and sampler."""
    cfg = _config(args, keys)
    H = _resolve_code(cfg)
    mdp_cfg = MdpConfig(L=int(cfg.get("L", 10)), gamma=float(cfg.get("gamma", 0.9)),
                        variant=cfg.get("variant", MdpConfig.variant),
                        w=cfg.get("w"))
    bf = _bf_config(cfg)
    need = mdp_cfg.set_names
    sets = {}
    if need & {"correct", "fail", "misc"}:
        status = analysis.classify_syndromes(H, bf).status_sets()
        sets.update(zip(("correct", "fail", "misc"), status))
    if need & {"bcorrect", "bfail", "bmisc"}:
        sets.update(analysis.bounded_sets(H, mdp_cfg.w, bf))
    elif "ball" in need:
        sets["ball"] = hamming_ball_syndromes(H, mdp_cfg.w)
    env = SyndromeMdp(H, mdp_cfg, SyndromeSets(**sets))
    if env.start_states is not None:
        return cfg, env, tabular.SetSampler(env.start_states)
    w = cfg.get("sample_w") or mdp_cfg.w or 1
    return cfg, env, tabular.BallSampler(H, int(w))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build_code(args) -> int:
    cfg = _config(args)
    H = _resolve_code(cfg)
    print(f"H: {H.m} x {H.n}, rank {H.rank}, k {H.k}, hash {H.code_hash[:12]}")
    if args.out:
        save_alist(H, args.out)
        _write_sidecar(args.out, cfg)
        print(f"wrote {args.out}")
    return 0


_TRAIN_KEYS = ("variant", "w", "gamma", "L", "alpha", "episodes", "eps_max",
               "eps_min", "seed", "sample_w", "tau", "bf_max_iter")


def cmd_train_q(args) -> int:
    cfg, env, sampler = _train_env(args, _TRAIN_KEYS)
    tcfg = tabular.TrainConfig(
        episodes=int(cfg.get("episodes", 100_000)),
        alpha=float(cfg.get("alpha", 0.1)),
        eps_max=float(cfg.get("eps_max", 0.9)),
        eps_min=float(cfg.get("eps_min", 0.05)),
        seed=int(cfg.get("seed", 0)),
    )
    Q = tabular.train_q(env, tcfg, sampler)
    tabular.save_qtable(Q, args.out)
    if args.text_out:
        tabular.save_qtable_text(Q, args.text_out)
    _write_sidecar(args.out, cfg)
    print(f"trained {len(Q)} states -> {args.out}")
    return 0


_DQN_KEYS = _TRAIN_KEYS + ("hidden", "batch", "lr", "buffer", "sync_every",
                           "optimizer")


def cmd_train_dqn(args) -> int:
    cfg, env, sampler = _train_env(args, _DQN_KEYS)
    dcfg = neural.DqnConfig(
        episodes=int(cfg.get("episodes", 100_000)),
        hidden=int(cfg.get("hidden", 512)),
        batch=int(cfg.get("batch", 128)),
        lr=float(cfg.get("lr", 1e-4)),
        eps_max=float(cfg.get("eps_max", 0.9)),
        eps_min=float(cfg.get("eps_min", 0.05)),
        buffer_capacity=int(cfg.get("buffer", 100_000)),
        sync_every=int(cfg.get("sync_every", 1000)),
        optimizer=cfg.get("optimizer", "adam"),
        seed=int(cfg.get("seed", 0)),
    )
    net = neural.train_dqn(env, dcfg, sampler)
    neural.save_network(net, args.out)
    if args.text_out:
        neural.save_network_text(net, args.text_out)
    _write_sidecar(args.out, cfg)
    print(f"trained network {net.sizes} -> {args.out}")
    return 0


def _make_decoder(kind, model, H, cfg):
    beam = decoders.BeamConfig(k=int(cfg.get("k", 5)),
                               d_max=int(cfg.get("d_max", 10)))
    bf = _bf_config(cfg)
    return sim.DECODERS[kind](model, H, beam, bf)


_DECODE_KEYS = ("k", "d_max", "tau", "bf_max_iter")


def cmd_decode(args) -> int:
    cfg = _config(args, _DECODE_KEYS)
    H = _resolve_code(cfg)
    model = _load_model(args.model, H) if args.model else decoders.ZeroQ(H.n)
    e = _parse_error_pattern(args.error, H.n)
    if args.decoder == "greedy":
        trace: list = []
        res = decoders.greedy_decode(model, e, H, int(cfg.get("d_max", 10)), trace)
        for step, (s, a, q) in enumerate(trace, 1):
            print(f"step={step} syndrome={s:x} action={a + 1} q={q!r}")
    else:
        res = _make_decoder(args.decoder, model, H, cfg)(e)
        if res.path is not None:
            for step, a in enumerate(res.path.actions, 1):
                print(f"step={step} syndrome={res.path.states[step - 1]:x} "
                      f"action={a + 1}")
    flips = res.flips.bit_count()
    print(f"{res.status}, {flips} flip{'s' if flips != 1 else ''}")
    if res.flips:
        positions = ",".join(str(i + 1) for i in support(res.flips))
        print(f"flipped bits: {positions}")
    return 0 if res.converged else 1


_SIM_KEYS = _DECODE_KEYS + ("rhos", "max_frames", "target_errors", "seed",
                            "batch", "workers")


def cmd_simulate(args) -> int:
    cfg = _config(args, _SIM_KEYS)
    if isinstance(cfg.get("rhos"), str):
        cfg["rhos"] = [float(v) for v in cfg["rhos"].split(",")]
    H = _resolve_code(cfg)
    model = _load_model(args.model, H) if args.model else decoders.ZeroQ(H.n)
    decoder = _make_decoder(args.decoder, model, H, cfg)
    scfg = sim.SimConfig(
        rhos=tuple(cfg.get("rhos", ())),
        max_frames=int(cfg.get("max_frames", 100_000)),
        target_errors=int(cfg.get("target_errors", 100)),
        seed=int(cfg.get("seed", 0)),
        batch=int(cfg.get("batch", 1000)),
        workers=int(cfg.get("workers", 1)),
    )
    if not scfg.rhos:
        raise ValueError("no crossover probabilities given (--rhos)")
    points = sim.run_curve(decoder, H.n, scfg, csv_path=args.out,
                           gnuplot=args.gnuplot)
    for pt in points:
        print(f"rho={pt.rho!r} frames={pt.frames} fer={pt.fer!r} ber={pt.ber!r}")
    if args.out:
        _write_sidecar(args.out, cfg)
    return 0


def cmd_enum_failures(args) -> int:
    cfg = _config(args, ("tau", "bf_max_iter", "w_max", "workers"))
    H = _resolve_code(cfg)
    bf = _bf_config(cfg)
    enum = analysis.enumerate_failures(
        H, bf, w_max=int(cfg.get("w_max", 2)),
        workers=int(cfg.get("workers", 1)), checkpoint=args.checkpoint,
    )
    print("failures:", enum.failures.polynomial_str())
    print("miscorrections:", enum.miscorrections.polynomial_str())
    if args.out:
        analysis.write_enumeration_csv(enum, args.out)
        _write_sidecar(args.out, cfg)
    return 0


def cmd_count_orbits(args) -> int:
    count = automorphism.burnside_count(args.j, args.p, args.b)
    print(count)
    if args.bounds:
        if args.k_blocks is None or args.a is None:
            raise ValueError("--bounds needs --k-blocks and --a")
        spec = QcLdpcSpec(args.p, args.j, args.k_blocks, args.a, args.b)
        lower, upper = analysis.syndrome_bounds(spec, build_qc_ldpc(spec))
        print(f"bounds: [{lower}, {upper}]")
    return 0


def cmd_canonicalize(args) -> int:
    bits = [int(c) for c in args.bits]
    rep = automorphism.canonical_representative(bits, args.p, args.blocks,
                                                args.mult)
    print("".join(str(int(b)) for b in rep))
    return 0


def cmd_bdd(args) -> int:
    print(repr(analysis.bdd_fer(args.n, args.w, args.rho)))
    return 0


def cmd_floor(args) -> int:
    counts = {}
    for part in args.counts.split(","):
        w, c = part.split(":")
        counts[int(w)] = int(c)
    est = analysis.error_floor_estimate(
        analysis.WeightEnumerator(args.n, counts), args.rho
    )
    print(f"full={est.full!r} dominant={est.dominant!r} "
          f"slope={est.slope} intercept={est.intercept!r}")
    return 0


def cmd_policies(args) -> int:
    print(analysis.count_optimal_policies(args.n, args.t))
    return 0


def cmd_guarantee(args) -> int:
    g = analysis.feedback_guarantee(args.fail, args.misc, args.variant,
                                    w_ball=args.w_ball, t=args.t)
    print("inf" if math.isinf(g) else g)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synq",
                                 description="RL syndrome decoding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-code", help="construct a code and report/export it")
    _code_args(p)
    p.add_argument("--out", help="write the parity checks as an alist file")
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("train-q", help="train a tabular policy")
    _code_args(p)
    p.add_argument("--variant")
    p.add_argument("--w", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--L", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--episodes", type=int)
    p.add_argument("--eps-max", dest="eps_max", type=float)
    p.add_argument("--eps-min", dest="eps_min", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-w", dest="sample_w", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--bf-max-iter", dest="bf_max_iter", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--text-out", dest="text_out")
    p.set_defaults(func=cmd_train_q)

    p = sub.add_parser("train-dqn", help="train a network policy")
    _code_args(p)
    for flag, typ in [("--variant", str), ("--w", int), ("--gamma", float),
                      ("--L", int), ("--episodes", int), ("--hidden", int),
                      ("--batch", int), ("--lr", float), ("--buffer", int),
                      ("--optimizer", str), ("--seed", int),
                      ("--sample-w", int), ("--tau", int)]:
        p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
    p.add_argument("--eps-max", dest="eps_max", type=float)
    p.add_argument("--eps-min", dest="eps_min", type=float)
    p.add_argument("--sync-every", dest="sync_every", type=int)
    p.add_argument("--bf-max-iter", dest="bf_max_iter", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--text-out", dest="text_out")
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("decode", help="decode one error pattern")
    _code_args(p)
    p.add_argument("--model")
    p.add_argument("--decoder", default="greedy",
                   choices=list(sim.DECODERS))
    p.add_argument("--error", default="",
                   help="1-based positions '3,17', hex '0x11', or '' for none")
    p.add_argument("--k", type=int)
    p.add_argument("--d-max", dest="d_max", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--bf-max-iter", dest="bf_max_iter", type=int)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo FER/BER curve")
    _code_args(p)
    p.add_argument("--model")
    p.add_argument("--decoder", default="greedy",
                   choices=list(sim.DECODERS))
    p.add_argument("--rhos")
    p.add_argument("--max-frames", dest="max_frames", type=int)
    p.add_argument("--target-errors", dest="target_errors", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d-max", dest="d_max", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--bf-max-iter", dest="bf_max_iter", type=int)
    p.add_argument("--out")
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enum-failures", help="exhaustive decoder sweep")
    _code_args(p)
    p.add_argument("--tau", type=int)
    p.add_argument("--bf-max-iter", dest="bf_max_iter", type=int)
    p.add_argument("--w-max", dest="w_max", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enum_failures)

    p = sub.add_parser("count-orbits", help="necklace orbit count")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--k-blocks", dest="k_blocks", type=int)
    p.add_argument("--a", type=int)
    p.set_defaults(func=cmd_count_orbits)

    p = sub.add_parser("canonicalize", help="canonical necklace coloring")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--mult", type=int, required=True)
    p.add_argument("--bits", required=True)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("bdd", help="bounded-distance decoder FER")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_bdd)

    p = sub.add_parser("floor", help="error-floor estimate from counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--counts", required=True, help="e.g. '2:620,3:154225'")
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_floor)

    p = sub.add_parser("policies", help="count optimal decoding policies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser("guarantee", help="feedback-decoder correction bound")
    p.add_argument("--fail", type=int)
    p.add_argument("--misc", type=int)
    p.add_argument("--variant", default="theorem2",
                   choices=["theorem2", "remark1"])
    p.add_argument("--w-ball", dest="w_ball", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_guarantee)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
