import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import bubblecross
from bubblecross import cli
from bubblecross.config import GENERATION_GUARD


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_dot_to_stdout(capsys):
    code, out, err = run(capsys, "graph", "--n", "4", "--format", "dot")
    assert code == 0 and err == ""
    assert out.startswith("graph B4 {")
    assert out.count("--") == 36


def test_graph_json_file(tmp_path, capsys):
    target = tmp_path / "b4.json"
    code, out, _ = run(capsys, "graph", "--n", "4", "--format", "json", "-o", str(target))
    assert code == 0
    assert "24 vertices, 36 edges" in out
    data = json.loads(target.read_text())
    assert data["n"] == 4 and len(data["edges"]) == 36


def test_graph_bprime_metadata(tmp_path, capsys):
    target = tmp_path / "bp6.json"
    code, out, _ = run(capsys, "graph", "--n", "6", "--bprime", "--format", "json",
                       "-o", str(target))
    assert code == 0
    assert "core=120" in out
    assert json.loads(target.read_text())["core_count"] == 120


def test_graph_guard_exit_code(capsys):
    code, _, err = run(capsys, "graph", "--n", "12")
    assert code == 2
    assert "guard" in err


def test_mesh_prints_both_counts(capsys):
    code, out, _ = run(capsys, "mesh", "--n", "6", "--a", "1", "--P", "2,4,5,3")
    assert code == 0
    assert "total_crossings=30" in out
    assert "oracle_crossings=30" in out


def test_mesh_svg_artifact(tmp_path, capsys):
    target = tmp_path / "m62.svg"
    code, _, _ = run(capsys, "mesh", "--n", "6", "--a", "2", "--P", "2,4,5,3",
                     "--format", "svg", "-o", str(target))
    assert code == 0
    svg = target.read_text()
    assert "crossings=21" in svg
    assert svg.count('class="crossing"') == 21


def test_mesh_duplicate_anchor_rejected(capsys):
    code, _, err = run(capsys, "mesh", "--n", "6", "--a", "2", "--P", "2,2,5,3")
    assert code == 2
    assert "permutation" in err


def test_mesh_unparsable_P(capsys):
    code, _, err = run(capsys, "mesh", "--n", "6", "--a", "2", "--P", "2,x,5,3")
    assert code == 2


def test_verify_planarity(capsys):
    code, out, _ = run(capsys, "verify", "planarity")
    assert code == 0
    assert "planarity: PASS" in out
    assert "B_5 non-planar" in out


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    from bubblecross import verify

    def failing(name, seed):
        return verify.Report(name, False, 1, [f"{name}: FAIL forced counterexample"])

    monkeypatch.setattr(verify, "run_suite", failing)
    code, out, _ = run(capsys, "verify", "planarity")
    assert code == 1
    assert "FAIL" in out


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "n,bound,ratio_approx"
    assert lines[1].startswith("7,237456")
    assert lines[2].startswith("8,12402864")


def test_bounds_below_minimum(capsys):
    code, _, err = run(capsys, "bounds", "--n-max", "6")
    assert code == 2


def test_bounds_json_exact(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _, _ = run(capsys, "bounds", "--n-max", "30", "--format", "json", "-o", str(target))
    assert code == 0
    rows = json.loads(target.read_text())["rows"]
    assert rows[0] == {"bound": "237456", "n": 7}
    assert all(r["bound"].isdigit() for r in rows)


def test_trace_csv(capsys):
    code, out, _ = run(capsys, "trace", "--to", "7")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    total7 = sum(int(r[3]) for r in rows if r[0] == "7")
    zero7 = sum(int(r[3]) for r in rows if r[0] == "7" and r[1] == r[2])
    assert total7 == 840 and zero7 == 480


def test_trace_random_policy(capsys):
    code, out, _ = run(capsys, "trace", "--to", "8", "--policy", "random", "--seed", "7")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    diffs = {abs(int(r[1]) - int(r[2])) for r in rows if r[0] == "8"}
    assert diffs == {1}


def test_trace_guard(capsys):
    code, _, err = run(capsys, "trace", "--to", str(GENERATION_GUARD + 1))
    assert code == 2
    assert f"7..{GENERATION_GUARD}" in err


def _loaded_after(code):
    src = str(Path(bubblecross.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


LAYERS = ("bounds", "drawing", "graphs", "mesh", "perms", "verify")


def test_cli_import_leaves_networkx_unloaded():
    # Neither the package nor the CLI module, nor building the CLI's parser,
    # loads a layer (or networkx).
    for code in ("import bubblecross", "import bubblecross.cli",
                 "from bubblecross import cli; cli.build_parser()"):
        loaded = _loaded_after(code)
        assert "bubblecross" in loaded
        assert not {f"bubblecross.{m}" for m in LAYERS} & loaded, code
        assert "networkx" not in loaded, code


@pytest.mark.parametrize("argv, layers", [
    (["graph", "--n", "4"], {"graphs", "perms"}),
    (["mesh", "--n", "6", "--a", "1", "--P", "2,4,5,3"], {"mesh"}),
    (["bounds", "--n-max", "8"], {"bounds", "mesh"}),
    (["trace", "--to", "8"], {"drawing", "perms"}),
    (["verify", "lemma2"], {"drawing", "graphs", "mesh", "perms", "verify"}),
], ids=["graph", "mesh", "bounds", "trace", "verify"])
def test_subcommand_loads_only_its_layers(argv, layers):
    loaded = _loaded_after(f"from bubblecross import cli; assert cli.main({argv!r}) == 0")
    assert {m for m in LAYERS if f"bubblecross.{m}" in loaded} == layers


def test_choice_names_match_their_layers():
    from bubblecross import config, drawing, verify

    assert drawing.SEED_SPLITS == config.SEED_SPLITS
    assert config.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "bounds", "--n-max", "9", "-o", str(a))
    run(capsys, "bounds", "--n-max", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    run(capsys, "trace", "--to", "8", "--policy", "random", "-o", str(c))
    run(capsys, "trace", "--to", "8", "--policy", "random", "-o", str(d))
    assert c.read_bytes() == d.read_bytes()


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code, _, _ = run(capsys, "mesh", "--n", "6", "--a", "2", "--P", "2,4,5,3",
                     "--format", "json", "-o", "spec.json")
    assert code == 0
    assert (tmp_path / "spec.json").exists()


def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "bounds", "--n-max", "9", "-o", str(tmp_path / "b.csv"))
    assert code == 2
    assert "disk full" in err and "wrote" not in out
    assert list(tmp_path.iterdir()) == []


def test_output_to_a_pipe_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(capsys, "bounds", "--n-max", "9", "-o", str(fifo))
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0 and data.startswith(b"n,bound")
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_missing_subcommand_usage_error(capsys):
    assert cli.main([]) == 2
