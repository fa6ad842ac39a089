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
import dataclasses
import json
import math
import sys

from . import analysis, automorphism, decoders, modelfile, neural, sim, tabular
from .codes import (TANNER_SPEC, ParityCheckMatrix, QcLdpcSpec, build_qc_ldpc,
                    hamming_ball_syndromes, load_alist, save_alist, support)
from .mdp import MdpConfig, SyndromeMdp, SyndromeSets


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _config(args) -> dict:
    """File config (if any) overridden by explicitly supplied flags.

    The config fields of a subcommand are the flags `_code_args` gave it; a
    file may hold only those and ``code``, each value of its flag's type
    (``rhos`` may also list numbers), and is coerced to that type here: a
    JSON ``1`` for a float field reads as ``1.0``.  ``rhos`` resolves to a
    tuple of floats.
    """
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
        unknown = sorted(cfg.keys() - args.fields.keys() - {"code"})
        if unknown:
            raise ValueError(f"config {args.config}: unknown key {unknown[0]!r}")
        for key, flag_type in args.fields.items():
            if key not in cfg:
                continue
            value = cfg[key]
            if type(value) in _JSON_TYPES[flag_type]:
                cfg[key] = flag_type(value)
            elif key == "rhos" and isinstance(value, list) and all(
                    type(v) in _JSON_TYPES[float] for v in value):
                cfg[key] = tuple(float(v) for v in value)
            else:
                raise ValueError(f"config {args.config}: {key} = {value!r} does "
                                 f"not fit the type of --{key.replace('_', '-')}")
    for key in args.fields:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if isinstance(cfg.get("rhos"), str):
        cfg["rhos"] = tuple(float(v) for v in cfg["rhos"].split(","))
    if getattr(args, "qc", None):
        cfg["code"] = list(args.qc)
    if getattr(args, "code", None):
        cfg["code"] = args.code
    cfg.setdefault("code", "tanner")
    return cfg


#: config keys whose library config field has another name
_FIELD_KEYS = {"buffer_capacity": "buffer", "max_iter": "bf_max_iter"}


def _from_config(cls, cfg: dict, **defaults):
    """The config dataclass `cls`, each field read from the config key of its
    name; absent keys fall back to `defaults`, then to the field default."""
    keys = {f.name: _FIELD_KEYS.get(f.name, f.name) for f in dataclasses.fields(cls)}
    return cls(**{**defaults, **{f: cfg[k] for f, k in keys.items() if k in cfg}})


def _resolve_code(cfg) -> ParityCheckMatrix:
    code = cfg["code"]
    if isinstance(code, str) and code == "tanner":
        return build_qc_ldpc(TANNER_SPEC)
    if isinstance(code, str):
        return load_alist(code)
    if isinstance(code, list) and len(code) == 5 and all(type(v) is int for v in code):
        return build_qc_ldpc(QcLdpcSpec(*code))
    raise ValueError(f"cannot interpret code spec {code!r}")


#: config-field flags shared by several subcommands, as (flag, type)
_BF_FIELDS = (("--tau", int), ("--bf-max-iter", int))
_TRAIN_FIELDS = (("--variant", str), ("--w", int), ("--gamma", float), ("--L", int),
                 ("--episodes", int), ("--eps-max", float), ("--eps-min", float),
                 ("--seed", int), *_BF_FIELDS)
_DECODER_FIELDS = (("--k", int), ("--d-max", int), *_BF_FIELDS)


def _code_args(sub, *fields):
    """--code, --qc, --config and the subcommand's config fields, as (flag, type)."""
    sub.add_argument("--code", help="'tanner' or an alist file path")
    sub.add_argument("--qc", type=int, nargs=5, metavar=("P", "J", "K", "A", "B"),
                     help="quasi-cyclic parameters p j k_blocks a b")
    sub.add_argument("--config", help="JSON configuration file")
    added = [sub.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
             for flag, typ in fields]
    sub.set_defaults(fields={a.dest: a.type for a in added})


def _write_sidecar(out_path: str, cfg: dict) -> None:
    with open(out_path + ".config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


_LOADERS = {modelfile.QTAB: tabular.load_qtable, modelfile.QNET: neural.load_network}


def _load_model(path: str, H: ParityCheckMatrix):
    model = _LOADERS[modelfile.format_of(path)](path)
    got = model.meta.get("code_hash")
    if got != H.code_hash:
        raise ValueError(
            f"model {path} was trained for code {str(got)[:12]}..., "
            f"given code {H.code_hash[:12]}..."
        )
    if (model.n, model.m) != (H.n, H.m):
        raise ValueError(f"model {path} has n = {model.n}, m = {model.m}; "
                         f"the code has n = {H.n}, m = {H.m}")
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


def _train_env(args):
    """The config, and the training MDP it names with its sets and sampler."""
    cfg = _config(args)
    H = _resolve_code(cfg)
    mdp_cfg = _from_config(MdpConfig, cfg)
    bf = _from_config(decoders.BitFlipConfig, cfg)
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
    return cfg, env, tabular.BallSampler(H, 1 if mdp_cfg.w is None else mdp_cfg.w)


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


def cmd_train_q(args) -> int:
    cfg, env, sampler = _train_env(args)
    Q = tabular.train_q(env, _from_config(tabular.TrainConfig, cfg, episodes=100_000),
                        sampler)
    tabular.save_qtable(Q, args.out)
    if args.text_out:
        tabular.save_qtable_text(Q, args.text_out)
    _write_sidecar(args.out, cfg)
    print(f"trained {len(Q)} states -> {args.out}")
    return 0


def cmd_train_dqn(args) -> int:
    cfg, env, sampler = _train_env(args)
    net = neural.train_dqn(env, _from_config(neural.DqnConfig, cfg, episodes=100_000),
                           sampler)
    neural.save_network(net, args.out)
    if args.text_out:
        neural.save_network_text(net, args.text_out)
    _write_sidecar(args.out, cfg)
    print(f"trained network {net.sizes} -> {args.out}")
    return 0


def _decode_env(args):
    """The config, its code, and the --decoder over --model (or `ZeroQ`)."""
    cfg = _config(args)
    H = _resolve_code(cfg)
    model = _load_model(args.model, H) if args.model else decoders.ZeroQ(H.n)
    return cfg, H, decoders.Decoder(args.decoder, model, H,
                                    _from_config(decoders.BeamConfig, cfg),
                                    _from_config(decoders.BitFlipConfig, cfg))


def cmd_decode(args) -> int:
    _, H, decoder = _decode_env(args)
    e = _parse_error_pattern(args.error, H.n)
    if decoder.kind == "greedy":
        trace: list = []
        res = decoders.greedy_decode(decoder.qsrc, e, H, decoder.beam.d_max, trace)
        for step, (s, a, q) in enumerate(trace, 1):
            print(f"step={step} syndrome={s:x} action={a + 1} q={q!r}")
    else:
        res = decoder(e)
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


def cmd_simulate(args) -> int:
    cfg, H, decoder = _decode_env(args)
    scfg = _from_config(sim.SimConfig, cfg)
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
    cfg = _config(args)
    H = _resolve_code(cfg)
    enum = analysis.enumerate_failures(
        H, _from_config(decoders.BitFlipConfig, cfg), w_max=cfg.get("w_max", 2),
        workers=cfg.get("workers", 1), checkpoint=args.checkpoint,
    )
    print("failures:", enum.failures.polynomial_str())
    print("miscorrections:", enum.miscorrections.polynomial_str())
    if args.out:
        analysis.write_enumeration_csv(enum, args.out)
        _write_sidecar(args.out, cfg)
    return 0


def cmd_count_orbits(args) -> int:
    # everything is computed before the first line goes out, so an invalid
    # spec prints nothing but the error
    lines = [automorphism.burnside_count(args.j, args.p, args.b)]
    if args.bounds:
        if args.k_blocks is None or args.a is None:
            raise ValueError("--bounds needs --k-blocks and --a")
        spec = QcLdpcSpec(args.p, args.j, args.k_blocks, args.a, args.b)
        lower, upper = analysis.syndrome_bounds(spec, build_qc_ldpc(spec))
        lines.append(f"bounds: [{lower}, {upper}]")
    print(*lines, sep="\n")
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
        w, c = map(int, part.split(":"))
        if w in counts:
            raise ValueError(f"weight {w} given twice in --counts")
        counts[w] = c
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other error, print
    one ``{"error": "..."}`` line to stderr and exit 2; its subparsers are
    of this class too."""

    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="synq", description="RL syndrome decoding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-code", help="construct a code and report/export it")
    _code_args(p)
    p.add_argument("--out", help="write the parity checks as an alist file")
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("train-q", help="train a tabular policy")
    _code_args(p, *_TRAIN_FIELDS, ("--alpha", float))
    p.add_argument("--out", required=True)
    p.add_argument("--text-out", dest="text_out")
    p.set_defaults(func=cmd_train_q)

    p = sub.add_parser("train-dqn", help="train a network policy")
    _code_args(p, *_TRAIN_FIELDS, ("--hidden", int), ("--batch", int),
              ("--lr", float), ("--buffer", int), ("--optimizer", str),
              ("--sync-every", int))
    p.add_argument("--out", required=True)
    p.add_argument("--text-out", dest="text_out")
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("decode", help="decode one error pattern")
    _code_args(p, *_DECODER_FIELDS)
    p.add_argument("--model")
    p.add_argument("--decoder", default="greedy",
                   choices=decoders.KINDS)
    p.add_argument("--error", default="",
                   help="1-based positions '3,17', hex '0x11', or '' for none")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo FER/BER curve")
    _code_args(p, ("--rhos", str), ("--max-frames", int), ("--target-errors", int),
              ("--seed", int), ("--batch", int), ("--workers", int),
              *_DECODER_FIELDS)
    p.add_argument("--model")
    p.add_argument("--decoder", default="greedy",
                   choices=decoders.KINDS)
    p.add_argument("--out")
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enum-failures", help="exhaustive decoder sweep")
    _code_args(p, *_BF_FIELDS, ("--w-max", int), ("--workers", int))
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
    # exact counts outgrow the 4,300-digit int -> str limit; lifted for this call
    set_limit = getattr(sys, "set_int_max_str_digits", None) or (lambda _: None)
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        set_limit(0)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    finally:
        set_limit(saved)


if __name__ == "__main__":
    sys.exit(main())
