import os
import re
import subprocess
import sys
from pathlib import Path

import bubblecross
from bubblecross import graphs
from bubblecross.config import TABLE_LIMIT

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(bubblecross.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_render_demo_artifacts(tmp_path):
    proc = run_script("render_demo_artifacts.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "b4.dot", "bounds.csv", "bprime6.json", "mesh_6_1.svg", "mesh_6_2.svg", "trace_to_9.csv",
    ]
    assert (tmp_path / "b4.dot").read_text(encoding="utf-8") == graphs.to_dot(graphs.build_bn(4))


def test_run_all_checks():
    proc = run_script("run_all_checks.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"bounds: triple equality holds for n=7..{TABLE_LIMIT} in " in proc.stdout
    assert re.fullmatch(r"cold import: bubblecross\.cli in \d+\.\d ms, loads bubblecross\b.*",
                        proc.stdout.splitlines()[0])
    graphs_lines = [line for line in proc.stdout.splitlines() if line.startswith("graphs:")]
    assert len(graphs_lines) == 1
    assert re.fullmatch(r"graphs: build_bn\(8\) \d+\.\d\ds, build_bprime\(8\) \d+\.\d\ds, "
                        r"symmetry_classes\(6\) \d+\.\d\ds", graphs_lines[0])
    mesh_lines = [line for line in proc.stdout.splitlines() if line.startswith("mesh:")]
    assert len(mesh_lines) == 1
    assert re.fullmatch(r"mesh: oracle_crossings\(n=30\) \d+\.\d{3}s, "
                        r"mesh_svg\(n=12\) \d+\.\d{3}s", mesh_lines[0])
