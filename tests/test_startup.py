"""Every command runs without numpy and writes the same bytes as with it.

The package needs only the standard library: grid axes, profiles and map
values are plain floats, and importing numpy would be about half of a fresh
CLI process's start-up.  Its records are named tuples, so neither does it
import ``dataclasses``, which would bring in ``inspect``.  Each test runs a
fresh interpreter, since this test session has loaded all three long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
CONFIGS = SRC / "thzsecmap" / "configs"
CELL = str(CONFIGS / "scenario1_cell.json")
DIRECTED = str(CONFIGS / "scenario2_directed.json")

COMMANDS = {
    "cell-plan": ["plan", "--config", CELL],
    "cell-link": ["link", "--config", CELL],
    "cell-threshold": ["threshold", "--config", CELL],
    "cell-radial": ["radial", "--config", CELL],
    "cell-sweep-n": ["sweep", "--config", CELL, "--variable", "n", "--values", "1000,4000"],
    "cell-map": ["map", "--config", CELL, "--resolution", "2.0"],
    "directed-plan": ["plan", "--config", DIRECTED],
    "directed-link": ["link", "--config", DIRECTED],
    "directed-sweep-d_AB": ["sweep", "--config", DIRECTED, "--variable", "d_AB",
                            "--values", "5,30", "--area-resolution", "4.0"],
    "directed-map": ["map", "--config", DIRECTED, "--resolution", "4.0"],
}

# argv[1] is "blocked" or "normal"; argv[2] the JSON list of command lines.
# A None entry in sys.modules makes every later `import numpy` raise ImportError.
RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from thzsecmap import cli
results = []
for argv in json.loads(sys.argv[2]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run(argv)
    results.append([code, stdout.getvalue()])
print(json.dumps(results))
"""


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def _run_all(mode: str, cwd: Path) -> tuple[dict, dict]:
    """(name -> [exit code, stdout], relative path -> bytes of every file written)."""
    cwd.mkdir()
    argvs = [argv + ["--out", f"out/{name}"] for name, argv in COMMANDS.items()]
    proc = _python("-c", RUN_COMMANDS, mode, json.dumps(argvs), cwd=cwd)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = dict(zip(COMMANDS, json.loads(proc.stdout)))
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
             if p.is_file()}
    return results, files


def test_import_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, thzsecmap.cli; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_and_load_leave_dataclasses_and_inspect_unloaded():
    # -S: no site module, whose .pth files may import either one themselves
    proc = _python("-S", "-c", "import sys, thzsecmap, thzsecmap.cli; "
                   f"thzsecmap.cli.load_config({CELL!r}); "
                   "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_command_runs_without_numpy(tmp_path):
    blocked, blocked_files = _run_all("blocked", tmp_path / "blocked")
    normal, normal_files = _run_all("normal", tmp_path / "normal")
    for name in COMMANDS:
        assert blocked[name][0] == 0, name
    assert blocked == normal
    # every command writes its metadata; radial and the two sweeps also write a
    # CSV, and each map a CSV and a PGM
    assert len(normal_files) == len(COMMANDS) + 7
    assert blocked_files == normal_files
