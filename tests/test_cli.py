import hashlib
import json
import math
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.cli import main
from synq.codes import build_qc_ldpc, load_alist, QcLdpcSpec
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


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_q_writes_model_and_sidecar(small_qtab):
    Q = load_qtable(str(small_qtab))
    assert len(Q) > 0
    assert Q.meta["variant"] == "truncated"
    with open(str(small_qtab) + ".config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["episodes"] == 2000 and sidecar["w"] == 1


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


def test_decode_qnet_without_sizes_is_a_usage_error(tmp_path, capsys):
    header = json.dumps({"activation": "relu", "code_hash": "x"}).encode()
    bad = tmp_path / "nosizes.qnet"
    bad.write_bytes(b"QNET" + struct.pack("<II", 1, len(header)) + header)
    assert main(["decode", "--model", str(bad), "--error", "1"]) == 2
    assert "malformed" in json.loads(capsys.readouterr().err)["error"]


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


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 3), keep=st.none() | st.floats(0.0, 1.0),
       flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
                      max_size=3))
def test_damaged_model_files_load_or_raise_value_error(tmp_path_factory, which,
                                                      keep, flips):
    # keep: the fraction of the file left after truncation (None: all of it);
    # flips: (relative position, xor mask) byte corruptions
    root = tmp_path_factory.getbasetemp()
    blob, load = _model_files(root)[which]
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


def test_canonicalize(capsys):
    rc = main(["canonicalize", "--p", "3", "--blocks", "1", "--mult", "1",
               "--bits", "110"])
    assert rc == 0
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


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "synq.cli", "policies", "--n", "3", "--t", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"
