import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.cli import main
from synq.codes import TANNER_SPEC, build_qc_ldpc, load_alist, QcLdpcSpec
from synq.neural import (MlpNetwork, load_network, load_network_text,
                         save_network, save_network_text)
from synq.tabular import (QTable, load_qtable, load_qtable_text, save_qtable,
                          save_qtable_text)


SMALL = ["--qc", "7", "3", "3", "2", "4"]


@pytest.fixture(scope="module")
def small_qtab(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "small.qtab"
    rc = main(["train-q", *SMALL, "--variant", "truncated", "--w", "1",
               "--episodes", "2000", "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------


def test_build_code_default_report(capsys):
    assert main(["build-code"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("H: 93 x 155, rank 91, k 64, hash ")


def test_build_code_alist_round_trip(tmp_path, capsys):
    path = tmp_path / "small.alist"
    assert main(["build-code", *SMALL, "--out", str(path)]) == 0
    H = load_alist(str(path))
    assert H == build_qc_ldpc(QcLdpcSpec(p=7, j=3, k_blocks=3, a=2, b=4))
    sidecar = json.loads((tmp_path / "small.alist.config.json").read_text())
    assert sidecar["code"] == [7, 3, 3, 2, 4]
    # the exported file round-trips through --code
    capsys.readouterr()
    assert main(["build-code", "--code", str(path)]) == 0
    assert f"rank {H.rank}" in capsys.readouterr().out


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["build-code", "--config", str(cfg)]) == 2
    assert str(cfg) in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv, fields", [
    (["simulate", "--decoder", "bf"], {"rhos": 5}),
    (["train-q", "--out", "x.qtab"], {"w": "x", "variant": "truncated"}),
    (["build-code"], {"code": [7, 3, 3, 2, None]}),
    (["enum-failures", *SMALL, "--tau", "1", "--out", "u.csv"], {"w_maxx": 1}),
    (["train-q", "--out", "x.qtab"], {"sample_w": 1}),
], ids=["rhos", "w", "code", "unknown key", "sample_w"])
def test_config_field_of_the_wrong_type_is_a_usage_error(tmp_path, monkeypatch,
                                                        capsys, argv, fields):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(fields))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert next(iter(fields)) in json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_q_oversized_ball_radius_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.qtab"
    assert main(["train-q", "--variant", "basic", "--w", "155", "--episodes", "10",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "radius" in json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-q", "train-dqn"])
def test_basic_variant_at_radius_zero_is_a_usage_error(tmp_path, capsys, command):
    # radius 0 is refused, not trained at radius 1 under a sidecar saying w = 0
    out = tmp_path / "x.model"
    assert main([command, *SMALL, "--variant", "basic", "--w", "0",
                 "--episodes", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "radius" in json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_dqn_non_finite_lr_is_a_usage_error(tmp_path, capsys, lr):
    # refused by the config, before any episode: nan used to train until
    # the first gradient step and then report divergence
    out = tmp_path / "x.qnet"
    assert main(["train-dqn", *SMALL, "--variant", "truncated", "--w", "1",
                 "--episodes", "10", "--lr", lr, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert "lr must be positive and finite" in json.loads(captured.err)["error"]
    assert captured.out == "" and not out.exists()


def test_train_q_writes_model_and_sidecar(small_qtab):
    Q = load_qtable(str(small_qtab))
    assert len(Q) > 0
    assert Q.meta["variant"] == "truncated"
    with open(str(small_qtab) + ".config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["episodes"] == 2000 and sidecar["w"] == 1


def test_train_q_sidecar_is_a_valid_config(tmp_path, small_qtab):
    out = tmp_path / "again.qtab"
    rc = main(["train-q", "--config", str(small_qtab) + ".config.json",
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == small_qtab.read_bytes()


def test_train_q_flags_override_config_file(tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"code": [7, 3, 3, 2, 4], "variant": "truncated",
                               "w": 1, "episodes": 500}))
    out = tmp_path / "t.qtab"
    rc = main(["train-q", "--config", str(cfg), "--episodes", "250",
               "--out", str(out)])
    assert rc == 0
    sidecar = json.loads((tmp_path / "t.qtab.config.json").read_text())
    assert sidecar["episodes"] == 250          # flag wins
    assert sidecar["variant"] == "truncated"   # file value survives
    assert load_qtable(str(out)).meta["config"]["episodes"] == 250


def test_config_integers_for_float_fields_train_like_float_flags(tmp_path):
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps({"gamma": 1, "eps_min": 0, "eps_max": 1, "alpha": 1,
                               "variant": "truncated", "w": 1, "episodes": 500}))
    from_file, from_flags = tmp_path / "file.qtab", tmp_path / "flags.qtab"
    assert main(["train-q", *SMALL, "--config", str(cfg), "--out", str(from_file)]) == 0
    assert main(["train-q", *SMALL, "--variant", "truncated", "--w", "1",
                 "--episodes", "500", "--gamma", "1.0", "--eps-min", "0.0",
                 "--eps-max", "1.0", "--alpha", "1.0", "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_train_dqn_writes_network(tmp_path, capsys):
    out = tmp_path / "tiny.qnet"
    rc = main(["train-dqn", *SMALL, "--variant", "truncated", "--w", "1",
               "--episodes", "60", "--hidden", "16", "--batch", "8",
               "--sync-every", "20", "--out", str(out)])
    assert rc == 0
    assert "trained network (21, 16, 21)" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "tiny.qnet.config.json").exists()
    # the artifact loads back through decode
    rc = main(["decode", *SMALL, "--model", str(out), "--error", "3"])
    assert rc in (0, 1)


@pytest.mark.parametrize("command,load,extra", [
    ("train-q", load_qtable, ["--episodes", "300"]),
    ("train-dqn", load_network, ["--episodes", "40", "--hidden", "8", "--batch", "8"]),
])
def test_negative_seed_trains_as_its_residue_mod_2_64(tmp_path, command, load, extra):
    # seeds reduce mod 2^64 as the channel's do; -1 used to print an
    # OverflowError as the usage error
    models = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / f"{seed}.model"
        assert main([command, *SMALL, "--variant", "truncated", "--w", "1", *extra,
                     "--seed", seed, "--out", str(out)]) == 0
        models.append(load(out))
    a, b = models
    if command == "train-q":
        assert sorted(a.states()) == sorted(b.states())
        assert all(np.array_equal(a.q_values(s), b.q_values(s)) for s in a.states())
    else:
        assert all(np.array_equal(a.params()[k], b.params()[k]) for k in a.params())


# SHA-256 of the .qtab that `train-q` writes for each reward variant on the
# small code (seed 5, 3000 episodes).  A change to the episode loop, the
# rewards, the start-state sets or the RNG stream shows up here.
QTAB_DIGESTS = {
    ("basic", None):
        "f6007f30149788ec4598224319ec32c26a58a07fefe655b7efdb116a9db418cf",
    ("truncated", 2):
        "c934fdb5a95cd30d83b7362489a0983eea290aadcac4b810ccd52215af1471e4",
    ("feedback", None):
        "04e3f0f15f796156f87fc7027fe63caa9f15da293913d9d2351bd8f1bea5d383",
    ("feedback_miscorrect", None):
        "42348942f1ddcb94664fc78b8264ce0679030b1d3a4efc72dfa9a1d060b6cc0c",
    ("bounded_feedback", 3):
        "8474ff291aa4d2bf519fa39df537bcb942a3631d4f82a6961b4a56b43e6d205c",
    ("bounded_feedback_miscorrect", 3):
        "524cffb3c31a5886548f7f789afaf3e87a8562e0eac62539a82693b73a6f4c1d",
}


@pytest.mark.parametrize("variant,w", sorted(QTAB_DIGESTS, key=str))
def test_train_q_artifact_digest(tmp_path, variant, w):
    out = tmp_path / "v.qtab"
    radius = ["--w", str(w)] if w else []
    rc = main(["train-q", *SMALL, "--variant", variant, *radius,
               "--episodes", "3000", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QTAB_DIGESTS[variant, w]


# SHA-256 of the .qnet that `train-dqn` writes on the small code at one
# OpenBLAS thread (the weights' last bits depend on the thread count).  The
# small ring and batch make the buffer wrap and sample some 270 minibatches,
# so a change to the replay rows, the loss, the optimizer or the RNG stream
# shows up here.
QNET_DIGEST = "23002e2fcde2c16029308a35366c9bfcf4600441a60313e08646e01424bd8f0f"


def test_train_dqn_artifact_digest(tmp_path):
    out = tmp_path / "v.qnet"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "synq.cli", "train-dqn", *SMALL, "--variant",
         "truncated", "--w", "2", "--hidden", "16", "--episodes", "150",
         "--seed", "0", "--batch", "16", "--buffer", "64", "--sync-every", "50",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QNET_DIGEST


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_no_error_converges_trivially(capsys):
    assert main(["decode", "--error", ""]) == 0
    assert capsys.readouterr().out == "Converged, 0 flips\n"


def test_decode_greedy_trace(small_qtab, capsys):
    rc = main(["decode", *SMALL, "--model", str(small_qtab), "--error", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step=1 syndrome=") and " action=4 q=" in lines[0]
    assert lines[1] == "Converged, 1 flip"
    assert lines[2] == "flipped bits: 4"


def test_decode_hex_error_equals_positions(small_qtab, capsys):
    main(["decode", *SMALL, "--model", str(small_qtab), "--error", "0x8"])
    hex_out = capsys.readouterr().out
    main(["decode", *SMALL, "--model", str(small_qtab), "--error", "4"])
    assert capsys.readouterr().out == hex_out


def test_decode_list_path_printout(capsys):
    # zero table: the list decoder still expands the first five actions
    rc = main(["decode", "--decoder", "list", "--error", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step=1 syndrome=") and lines[0].endswith("action=1")
    assert lines[1] == "Converged, 1 flip" and lines[2] == "flipped bits: 1"


def test_decode_auto_list_path_is_in_the_received_words_coordinates(capsys):
    # with a zero table the winning shift is not the identity; its path
    # must still name the bit that was flipped in the received word
    rc = main(["decode", "--code", "tanner", "--decoder", "auto-list", "--error", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step=1 syndrome=") and lines[0].endswith(" action=6")
    assert lines[1:] == ["Converged, 1 flip", "flipped bits: 6"]


def test_auto_list_needs_a_quasi_cyclic_code_before_any_frame(tmp_path, capsys):
    # an alist file carries no quasi-cyclic spec; at rho = 0 no frame ever
    # reaches the decoder, and the run must still stop with exit 2
    path = tmp_path / "s.alist"
    assert main(["build-code", *SMALL, "--out", str(path)]) == 0
    capsys.readouterr()
    for argv in (["simulate", "--rhos", "0.0", "--max-frames", "200",
                  "--target-errors", "10"], ["decode", "--error", ""]):
        assert main([*argv, "--code", str(path), "--decoder", "auto-list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "automorphism decoding needs a quasi-cyclic code"}


def test_decode_bf_and_failure_exit_code(capsys):
    assert main(["decode", "--decoder", "bf", "--error", "40"]) == 0
    assert "Converged, 1 flip" in capsys.readouterr().out
    # an all-zero policy cannot clear most single errors in 10 greedy steps
    rc = main(["decode", "--error", "40"])
    assert rc == 1
    assert "Failed" in capsys.readouterr().out


def test_decode_error_pattern_validation(capsys):
    assert main(["decode", *SMALL, "--error", "22"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "22" in err["error"]
    assert main(["decode", *SMALL, "--error", "0x400000"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_decode_model_code_mismatch(small_qtab, capsys):
    rc = main(["decode", "--model", str(small_qtab), "--error", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "trained for code" in err["error"]


def test_unknown_model_format(tmp_path, capsys):
    bogus = tmp_path / "model.bin"
    bogus.write_bytes(b"NOPE not a model")
    rc = main(["decode", "--model", str(bogus), "--error", "1"])
    assert rc == 2
    assert "unknown model format" in json.loads(capsys.readouterr().err)["error"]


def test_decode_malformed_qtable_is_a_usage_error(tmp_path, capsys):
    huge = json.dumps({"n": 10**13, "m": 4, "code_hash": "x"}).encode()
    for blob in [b"QTAB\x01\x00",  # cut inside the version field
                 b"QTAB" + struct.pack("<II", 1, len(huge)) + huge
                 + struct.pack("<Q", 0)]:  # no records, absurd width
        bad = tmp_path / "bad.qtab"
        bad.write_bytes(blob)
        assert main(["decode", "--model", str(bad), "--error", "1"]) == 2
        assert "malformed" in json.loads(capsys.readouterr().err)["error"]


def test_decode_non_finite_qtable_is_a_usage_error(tmp_path, capsys):
    H = build_qc_ldpc(QcLdpcSpec(7, 3, 3, 2, 4))
    Q = QTable(H.n, H.m, meta={"code_hash": H.code_hash})
    Q.row(H.cols_int[2])[:] = math.nan
    path = tmp_path / "nan.qtab"
    save_qtable(Q, path)
    assert main(["decode", *SMALL, "--model", str(path), "--error", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "non-finite" in json.loads(err)["error"]


def test_decode_qnet_without_sizes_is_a_usage_error(tmp_path, capsys):
    header = json.dumps({"activation": "relu", "code_hash": "x"}).encode()
    bad = tmp_path / "nosizes.qnet"
    bad.write_bytes(b"QNET" + struct.pack("<II", 1, len(header)) + header)
    assert main(["decode", "--model", str(bad), "--error", "1"]) == 2
    assert "malformed" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command", [
    ["decode", "--error", "1"],
    ["simulate", "--decoder", "greedy", "--rhos", "0.01", "--max-frames", "200",
     "--target-errors", "1000"],
], ids=["decode", "simulate"])
@pytest.mark.parametrize("kind, n, m", [
    ("qtab", 4, 93), ("qtab", 155, 92), ("qnet", 4, 93), ("qnet", 155, 92),
])
def test_model_sizes_must_match_the_code(tmp_path, capsys, command, kind, n, m):
    code_hash = build_qc_ldpc(TANNER_SPEC).code_hash
    path = tmp_path / f"narrow.{kind}"
    if kind == "qtab":
        Q = QTable(n, m, meta={"code_hash": code_hash, "n": n, "m": m})
        Q.row(1)[:] = 1.0
        save_qtable(Q, path)
    else:
        save_network(MlpNetwork.init(m, 8, n, meta={"code_hash": code_hash}), path)
    assert main([*command, "--code", "tanner", "--model", str(path)]) == 2
    assert f"n = {n}, m = {m}" in json.loads(capsys.readouterr().err)["error"]


def _model_files(root):
    """One valid file per model format: (path, loader)."""
    Q = QTable(n=4, m=11, meta={"code_hash": "abc", "n": 4, "m": 11})
    Q.row(3)[:] = [0.25, -1.5, 3.0, 1e-17]
    Q.row(1 << 10)[:] = [0.1, 0.2, 0.3, -0.4]
    net = MlpNetwork.init(3, 2, 4, seed=1, meta={"code_hash": "abc"})
    files = []
    for name, save, load, model in [
            ("t.qtab", save_qtable, load_qtable, Q),
            ("t.qtable", save_qtable_text, load_qtable_text, Q),
            ("n.qnet", save_network, load_network, net),
            ("n.txt", save_network_text, load_network_text, net)]:
        save(model, root / name)
        files.append(((root / name).read_bytes(), load))
    return files


# SHA-256 of the four files `_model_files` writes: the container frames and
# both payload layouts, binary and text, are pinned byte for byte.
MODEL_FILE_DIGESTS = [
    "90d979746838a8835067a66ea3629bea605f32119a07a0fd28fc622c0aba62c4",  # .qtab
    "e3a63e58bd7177dd2e56db2260bbcf188969c3e8c8723fe7546a4774d2d37502",  # qtable text
    "c414c7c66e0fcbf39385969d92b7844821bf861188055165003b381770c72401",  # .qnet
    "781871d69bbfcb8074fab25e4f3666ee05bf2ea8bc797ea84a3a4c11cb3d4370",  # qnet text
]


def test_model_file_bytes_are_pinned(tmp_path):
    got = [hashlib.sha256(blob).hexdigest() for blob, _ in _model_files(tmp_path)]
    assert got == MODEL_FILE_DIGESTS


def _decode_through_cli(path):
    """`synq decode` on a model file ends with a decode status or exit 2."""
    assert main(["decode", *SMALL, "--model", str(path), "--error", "3"]) in (0, 1, 2)


def _small_code_model_files(root):
    """A table and a network for the SMALL code, fed to `synq decode`; the
    undamaged table corrects the error at bit 3 in one step."""
    H = build_qc_ldpc(QcLdpcSpec(7, 3, 3, 2, 4))
    Q = QTable(H.n, H.m, meta={"code_hash": H.code_hash})
    Q.row(H.cols_int[2])[:] = -1.0
    Q.row(H.cols_int[2])[2] = 1.0
    save_qtable(Q, root / "small.qtab")
    save_network(MlpNetwork.init(H.m, 4, H.n, seed=2,
                                 meta={"code_hash": H.code_hash}),
                 root / "small.qnet")
    return [((root / name).read_bytes(), _decode_through_cli)
            for name in ("small.qtab", "small.qnet")]


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 5), keep=st.none() | st.floats(0.0, 1.0),
       flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
                      max_size=3))
def test_damaged_model_files_load_or_raise_value_error(tmp_path_factory, which,
                                                      keep, flips):
    # keep: the fraction of the file left after truncation (None: all of it);
    # flips: (relative position, xor mask) byte corruptions
    root = tmp_path_factory.getbasetemp()
    blob, load = (_model_files(root) + _small_code_model_files(root))[which]
    data = bytearray(blob if keep is None else blob[:int(keep * len(blob))])
    for where, mask in flips:
        if data:
            data[min(int(where * len(data)), len(data) - 1)] ^= mask
    path = root / "damaged"
    path.write_bytes(bytes(data))
    try:
        load(path)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_bf_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["simulate", "--decoder", "bf", "--rhos", "0.02",
               "--max-frames", "300", "--target-errors", "1000000",
               "--batch", "100", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("rho=0.02 frames=300 fer=")
    rows = out.read_text().splitlines()
    assert rows[0].startswith("rho,frames,") and len(rows) == 2
    assert (tmp_path / "curve.csv.config.json").exists()


def test_simulate_requires_rhos(capsys):
    assert main(["simulate", "--decoder", "bf"]) == 2
    assert "rhos" in json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# analysis front ends
# ---------------------------------------------------------------------------


def test_enum_failures_small_code(tmp_path, capsys):
    out = tmp_path / "enum.csv"
    rc = main(["enum-failures", *SMALL, "--tau", "1", "--w-max", "1",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "failures: 21 x^1" in stdout
    assert "miscorrections: 0" in stdout
    assert out.read_text().splitlines()[1] == "weight,patterns,failures,miscorrections"


@pytest.mark.parametrize("argv", [
    ["enum-failures", *SMALL, "--tau", "1", "--w-max", "1", "--workers", "0"],
    ["enum-failures", *SMALL, "--tau", "1", "--w-max", "1", "--workers", "-3"],
    ["simulate", *SMALL, "--decoder", "bf", "--rhos", "0.02", "--workers", "0"],
], ids=["enum 0", "enum -3", "simulate 0"])
def test_worker_count_below_one_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "workers" in json.loads(err)["error"]


@pytest.mark.parametrize("damage", ["not an object", "no weights", "not JSON"])
def test_enum_failures_malformed_checkpoint_is_a_usage_error(tmp_path, capsys,
                                                            damage):
    ck = tmp_path / "enum.json"
    args = ["enum-failures", *SMALL, "--w-max", "1", "--checkpoint", str(ck)]
    assert main(args) == 0
    state = json.loads(ck.read_text())
    assert main(args) == 0  # a finished checkpoint resumes to the same result
    del state["weights"]
    text = {"not an object": "[1]", "no weights": json.dumps(state),
            "not JSON": "{"}[damage]
    ck.write_text(text)
    capsys.readouterr()
    assert main(args) == 2
    assert str(ck) in json.loads(capsys.readouterr().err)["error"]


def test_enum_failures_refuses_a_qc_checkpoint_of_the_plain_sweep(tmp_path, capsys):
    ck = tmp_path / "enum.json"
    args = ["enum-failures", *SMALL, "--tau", "1", "--w-max", "2", "--checkpoint", str(ck)]
    assert main(args) == 0
    state = json.loads(ck.read_text())
    assert state["params"].pop("shift_orbits") == 7
    ck.write_text(json.dumps(state))  # as the sweep over every pattern wrote it
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "belongs to another run" in json.loads(err)["error"]


def test_enum_failures_refuses_a_checkpoint_past_the_last_pattern(tmp_path, capsys):
    ck = tmp_path / "enum.json"
    args = ["enum-failures", *SMALL, "--tau", "1", "--w-max", "3", "--checkpoint", str(ck)]
    assert main(args) == 0
    state = json.loads(ck.read_text())
    state["weights"]["3"] = {"done": 10**6, "fail": 0, "misc": 0}
    ck.write_text(json.dumps(state))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(ck) in json.loads(err)["error"]


def test_count_orbits(capsys):
    assert main(["count-orbits", "--j", "3", "--p", "7", "--b", "2"]) == 0
    assert capsys.readouterr().out.strip() == "99952"
    rc = main(["count-orbits", "--j", "3", "--p", "7", "--b", "4", "--bounds",
               "--k-blocks", "3", "--a", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "99952" and out[1].startswith("bounds: [")


def test_count_orbits_bounds_needs_variable_side(capsys):
    rc = main(["count-orbits", "--j", "3", "--p", "7", "--b", "2", "--bounds"])
    assert rc == 2
    assert "k-blocks" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("extra", [
    ["--bounds"],
    ["--bounds", "--k-blocks", "3"],
    ["--bounds", "--k-blocks", "3", "--a", "9"],  # a outside [1, p)
    ["--bounds", "--k-blocks", "3", "--a", "2"],  # a == b
    ["--bounds", "--k-blocks", "4", "--a", "4"],  # 4 has order 3 mod 7
])
def test_count_orbits_prints_nothing_before_an_error(capsys, extra):
    assert main(["count-orbits", "--j", "3", "--p", "7", "--b", "2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and json.loads(captured.err)["error"]


def test_canonicalize(capsys):
    rc = main(["canonicalize", "--p", "3", "--blocks", "1", "--mult", "1",
               "--bits", "110"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "011"


def test_canonicalize_single_bead_blocks(capsys):
    # p = 1: every multiplier is 1 mod p, and the orbit is the block rotations
    assert main(["canonicalize", "--p", "1", "--blocks", "3", "--mult", "1",
                 "--bits", "101"]) == 0
    assert capsys.readouterr().out.strip() == "011"


def test_bdd_command(capsys):
    assert main(["bdd", "--n", "7", "--w", "1", "--rho", "0.1"]) == 0
    got = float(capsys.readouterr().out)
    want = 1 - sum(math.comb(7, i) * 0.1**i * 0.9 ** (7 - i) for i in (0, 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_floor_command(capsys):
    rc = main(["floor", "--n", "155", "--counts", "2:620,3:154225",
               "--rho", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=2" in out and "full=" in out


def test_floor_takes_counts_beyond_float_range(capsys):
    rc = main(["floor", "--n", "2000", "--counts", f"500:{math.comb(2000, 500)}",
               "--rho", "0.25"])
    assert rc == 0
    full = float(capsys.readouterr().out.split()[0].removeprefix("full="))
    assert full == pytest.approx(0.0206, abs=5e-5)


@pytest.mark.parametrize("n, counts, needle", [
    ("155", "2:620,2:5", "weight 2 given twice"),
    ("10", "3:500", "500 patterns of weight 3"),
    ("155", "200:5", "5 patterns of weight 200"),
    ("155", "2:-5", "-5 patterns of weight 2"),
])
def test_floor_rejects_impossible_counts(capsys, n, counts, needle):
    assert main(["floor", "--n", n, "--counts", counts, "--rho", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and needle in json.loads(captured.err)["error"]


def test_policies_command(capsys):
    assert main(["policies", "--n", "3", "--t", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_guarantee_command(capsys):
    assert main(["guarantee", "--fail", "1", "--misc", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["guarantee", "--variant", "remark1", "--misc", "4",
                 "--t", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["guarantee"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


@pytest.mark.parametrize("argv", [
    ["--fail", "0", "--misc", "0"],
    ["--fail", "3", "--misc", "5", "--w-ball", "-2"],
    ["--variant", "remark1", "--misc", "4", "--t", "-2"],
])
def test_guarantee_rejects_meaningless_inputs(capsys, argv):
    assert main(["guarantee", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in json.loads(captured.err)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "synq.cli", "policies", "--n", "3", "--t", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


def _cli_error(argv, timeout=10):
    """Run the CLI in a subprocess; its exit code and one-line JSON error."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "synq.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return proc.returncode, json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["count-orbits", "--j", "3", "--p", "1000000007", "--b", "2"],
    ["build-code", "--qc", "1000000007", "3", "5", "2", "5"],
])
def test_order_check_on_a_large_prime_is_immediate(argv):
    # 3 and 5 do not divide p - 1, so no order is counted up towards p
    rc, error = _cli_error(argv)
    assert rc == 2 and "does not have order" in error


def test_alist_header_past_the_file_is_a_usage_error(tmp_path):
    # degree lines claiming n = m = 400,000 and no adjacency lines: the
    # 149 GiB matrix is never allocated
    n = 400_000
    path = tmp_path / "huge.alist"
    ones = " ".join(["1"] * n)
    path.write_text(f"{n} {n}\n1 1\n{ones}\n{ones}\n")
    rc, error = _cli_error(["build-code", "--code", str(path)])
    assert rc == 2 and "malformed alist file" in error


def test_importing_the_package_loads_no_scipy():
    # numpy is the only runtime dependency
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, synq, synq.analysis, synq.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_every_exported_name_resolves():
    import synq
    assert all(hasattr(synq, name) for name in synq.__all__)
    namespace: dict = {}
    exec("from synq import *", namespace)
    assert set(synq.__all__) <= namespace.keys()
