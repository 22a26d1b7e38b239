import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lww.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chi_example(capsys):
    code, out = run(capsys, "chi", "--d", "2", "--lambda", "1", "--nmax", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and "," in l]
    got = [r.split(",")[1] for r in rows[1:]]
    assert got == ["1/1", "4/1", "16/1", "64/1", "256/1", "1024/1"]


def test_enumerate_example(capsys):
    code, out = run(capsys, "enumerate", "--d", "1", "--n", "3")
    assert code == 0
    assert "3,0,2" in out and "3,1,6" in out


def test_metadata_header(capsys):
    code, out = run(capsys, "chi", "--d", "1", "--lambda", "1/2", "--nmax", "3")
    assert code == 0
    assert out.startswith("# version:")
    assert '"lam": "1/2"' in out


def test_json_format(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _ = run(
        capsys,
        "two-point",
        "--d",
        "1",
        "--lambda",
        "1/2",
        "--nmax",
        "4",
        "--x",
        "0",
        "--format",
        "json",
        "--output",
        str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["coeffs"][0] == "1/1"
    assert data["meta"]["version"]


def test_flag_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--lambda", "not-a-rational"])
    assert exc.value.code == 2


def test_unknown_suite_exit_code(capsys):
    assert main(["verify", "no-such-suite"]) == 2


def test_verify_core_passes(capsys):
    code, out = run(capsys, "verify", "core")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_laces_passes(capsys):
    # the structural check compares compatible_edges with lace_of end to end
    code, out = run(capsys, "verify", "laces")
    assert code == 0
    checks = [l for l in out.splitlines() if l.startswith("[")]
    assert len(checks) == 4
    assert all(l.startswith("[PASS]") for l in checks)


def test_alpha_and_loop_measure(capsys):
    code, out = run(capsys, "alpha", "--d", "1", "--lambda", "1", "--nmax", "2")
    assert code == 0
    # alpha0 z^2 coefficient is 2 at lambda=1, d=1
    assert out.splitlines()[-1].split(",")[1] == "2/1"
    code, out = run(
        capsys, "loop-measure", "--d", "1", "--lambda", "1/2", "--nmax", "2", "--hit", "0"
    )
    assert code == 0
    assert out.splitlines()[-1].split(",")[1] == "1/1"


def test_pi_agreement_exit(capsys):
    code, out = run(capsys, "pi", "--d", "1", "--lambda", "1/2", "--nmax", "4")
    assert code == 0


def test_msd_exact_cli(capsys):
    code, out = run(capsys, "msd", "--d", "1", "--lambda", "1/2", "--n", "2")
    assert code == 0
    assert "8/3" in out


def test_sample_cli(capsys):
    code, out = run(
        capsys, "sample", "--d", "1", "--lambda", "1", "--n", "3", "--samples", "5", "--seed", "1"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "sample_index,loop_count,end_0,end_sq"
    assert len(rows) == 6


# importance runs refused by the node budget; a leading NAME=value sets the environment
OVER_BUDGET = (
    ["msd", "--method", "importance", "--n", "10", "--samples", str(10**12)],
    ["LWW_BUDGET=1000", "msd", "--method", "importance", "--n", "10", "--samples", "1000"],
)


@pytest.mark.parametrize(
    "argv",
    [
        ["msd", "--method", "importance", "--n", "4", "--samples", "0"],
        ["msd", "--method", "importance", "--n", "4", "--samples", "-5"],
        ["msd", "--method", "importance", "--n", "4", "--seed", "-1"],
        ["msd", "--method", "importance", "--n", "4", "--seed", str(2**64)],
        ["sample", "--n", "3", "--seed", "-1"],
        ["msd", "--method", "importance", "--n", "10", "--samples", "10", "--lambda", str(10**171)],
        ["msd", "--method", "importance", "--n", "10", "--samples", "10", "--lambda", f"1/{10**400}"],
        ["msd", "--method", "importance", "--n", "4", "--samples", "10", "--lambda", str(10**400)],
        ["sample", "--n", "-1", "--samples", "2"],
        ["sample", "--n", "2", "--samples", "-1"],
        *OVER_BUDGET,
    ],
)
def test_bad_sampler_input_exit_code(capsys, monkeypatch, argv):
    over_budget = argv in OVER_BUDGET
    if "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("="))
        argv = argv[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not over_budget or "LWW_BUDGET" in captured.err


@pytest.mark.parametrize("value", ["1e9", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["msd", "--method", "importance", "--n", "10", "--samples", "1000"],
        ["chi", "--d", "2", "--lambda", "1/2", "--nmax", "5"],
    ],
)
def test_malformed_budget_exit_code(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("LWW_BUDGET", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "LWW_BUDGET" in err[0] and repr(value) in err[0]


def test_graph_file_mode(capsys, tmp_path):
    payload = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(payload))
    code, out = run(
        capsys,
        "chi",
        "--graph",
        str(path),
        "--lambda",
        "1",
        "--nmax",
        "3",
    )
    assert code == 0
    # walks from vertex 0 on a triangle: 1, 2, 4, 8
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [r.split(",")[1] for r in rows] == ["1/1", "2/1", "4/1", "8/1"]


def test_graph_file_vertex_valued_edges(capsys, tmp_path):
    corners = [[0, 0], [0, 1], [1, 0]]
    payload = {"vertices": corners, "edges": [[corners[0], corners[1]], [corners[1], corners[2]], [corners[2], corners[0]]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "chi", "--graph", str(path), "--lambda", "1", "--nmax", "3")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [r.split(",")[1] for r in rows] == ["1/1", "2/1", "4/1", "8/1"]
    code, out = run(capsys, "two-point", "--graph", str(path), "--lambda", "1", "--nmax", "2", "--x", "0,1")
    assert code == 0 and out.splitlines()[-1].split(",")[1] == "1/1"


def test_graph_file_without_edges(capsys, tmp_path):
    path = tmp_path / "dot.json"
    path.write_text(json.dumps({"vertices": [0], "edges": []}))
    code, out = run(capsys, "chi", "--graph", str(path), "--lambda", "1", "--nmax", "2")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [r.split(",")[1] for r in rows] == ["1/1", "0/1", "0/1"]


@pytest.mark.parametrize(
    "payload",
    [{"vertices": [], "edges": []}, {"vertices": [0, 1], "edges": [[0, 5]]}, {"edges": []}],
)
def test_bad_graph_file_exit_code(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["chi", "--graph", str(path), "--nmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "2"],
        ["sample", "--n", "2"],
        ["msd", "--n", "2"],
        ["msd", "--method", "importance", "--n", "2"],
        ["analyze", "--nmax", "2"],
        ["alpha", "--nmax", "2"],
        ["pi", "--nmax", "2"],
    ],
)
def test_lattice_only_commands_reject_graph(capsys, tmp_path, argv):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]]}))
    assert main(argv + ["--graph", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and "Z^d only" in err[0]


@pytest.mark.parametrize(
    "where,want",
    [
        (["--hit", "1,1"], ["0/1", "0/1", "2/1", "0/1", "8/1", "0/1", "89/3"]),
        (["--hit", "1,1", "--avoid", "0,0"], ["0/1", "0/1", "2/1", "0/1", "13/2", "0/1", "62/3"]),
        (["--hit", "0,0;2,2", "--avoid", "1,1"], ["0/1", "0/1", "2/1", "0/1", "2/1", "0/1", "8/3"]),
    ],
)
def test_loop_measure_on_a_box_graph(capsys, tmp_path, where, want):
    verts = [[i, j] for i in range(3) for j in range(3)]
    edges = [[[i, j], [i + di, j + dj]] for i, j in verts for di, dj in ((1, 0), (0, 1)) if i + di < 3 and j + dj < 3]
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"vertices": verts, "edges": edges}))
    argv = ["loop-measure", "--graph", str(path), "--lambda", "1/2", "--nmax", "6", "--format", "json"]
    code, out = run(capsys, *argv, *where)
    assert code == 0
    assert json.loads(out)["coeffs"] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["two-point", "--d", "2", "--x", "1"],
        ["two-point", "--d", "1", "--x", "1,0"],
        ["loop-measure", "--d", "2", "--hit", "0"],
        ["loop-measure", "--d", "2", "--hit", "0,0", "--avoid", "1,0,0"],
        ["two-point", "--d", "2", "--x", "a"],
        ["loop-measure", "--d", "2", "--hit", "0,0;;1,0"],
    ],
)
def test_bad_point_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "is not a vertex" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["pi", "--nmax", "-1"],
        ["alpha", "--nmax", "-1"],
        ["chi", "--nmax", "-1"],
        ["loop-measure", "--hit", "0,0", "--nmax", "-1"],
        ["msd", "--n", "-1"],
        ["msd", "--d", "0", "--n", "2"],
        ["msd", "--d", "-1", "--n", "2", "--lambda", "1/2"],
        ["enumerate", "--n", "-2"],
    ],
)
def test_bad_size_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


COMMANDS = ("enumerate", "two-point", "chi", "loop-measure", "alpha", "pi", "sample", "msd", "analyze")
LAMBDAS = ("0", "1/2", "1", "3", str(10**171), "-1", "1/0", "x", "", "nan", "1e3")


@settings(max_examples=200, deadline=None)
@given(
    cmd=st.sampled_from(COMMANDS),
    size=st.integers(-2, 4),
    d=st.integers(-1, 3),
    lam=st.sampled_from(LAMBDAS),
    point=st.lists(st.integers(-1, 1), max_size=3).map(lambda p: ",".join(map(str, p))),
    samples=st.integers(-1, 20),
    importance=st.booleans(),
)
def test_cli_argv_property(cmd, size, d, lam, point, samples, importance):
    """Any argument vector ends in exit code 0, 1 or 2, never in a traceback."""
    argv = [cmd, "--n" if cmd in ("enumerate", "sample", "msd") else "--nmax", str(size), "--d", str(d)]
    if cmd != "enumerate":
        argv += ["--lambda", lam]
    if cmd == "two-point":
        argv += ["--x", point]
    if cmd == "loop-measure":
        argv += ["--hit", point]
    if cmd == "sample" or (cmd == "msd" and importance):
        argv += ["--samples", str(samples)] + (["--method", "importance"] if cmd == "msd" else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,argv,header", [
    ("series_tables.py", ["--nmax", "4", "--lambdas", "1/2"], "## lambda = 1/2"),
    ("msd_experiment.py", ["--n", "4", "--samples", "1000", "--lambdas", "0,1/2"],
     "# d=2 n=4 samples=1000 seed=1"),
])
def test_scripts_run(script, argv, header):
    """The scripts import the package API; a removal there breaks them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
