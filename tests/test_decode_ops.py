import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("decode_ops", ROOT / "tools" / "decode_ops.py")
decode_ops = importlib.util.module_from_spec(spec)
spec.loader.exec_module(decode_ops)


def test_a_changed_decoder_is_the_only_different_digest(tmp_path, capsys):
    # the copy's bit flipping reports one iteration more per row, which only
    # the bf kind returns: feedback drops its inner decoder's iterations
    tree = tmp_path / "tree"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / "src" / "synq" / "decoders.py"
    text = path.read_text()
    old = "iters[r] = cfg.max_iter - left[done]\n"
    assert text.count(old) == 1
    path.write_text(text.replace(old, "iters[r] = cfg.max_iter - left[done] + 1\n"))

    assert decode_ops.main([str(ROOT), str(tree), "--workload", "decode-floor",
                            "--repeats", "1"]) == 1
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert lines["bf"].endswith("DIFFERENT")
    assert len(lines) == 7
    assert all(line.endswith("same") for name, line in lines.items() if name != "bf")
