"""Every command of the output manifest runs without numpy and writes the committed bytes.

The package needs only the standard library: grid axes, profiles and map
values are plain floats, and importing numpy would be about half of a fresh
CLI process's start-up.  Its records are named tuples, so neither does it
import ``dataclasses``, which would bring in ``inspect``.  Each test runs a
fresh interpreter, since this test session has loaded all three long ago.
"""

import os
import subprocess
import sys

from output_manifest import CELL, HERE, MANIFEST

SRC = HERE.parent / "src"


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, thzsecmap.cli; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_and_load_leave_dataclasses_and_inspect_unloaded():
    # -S: no site module, whose .pth files may import either one themselves
    proc = _python("-S", "-c", "import sys, thzsecmap, thzsecmap.cli; "
                   f"thzsecmap.cli.load_config({str(CELL)!r}); "
                   "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_command_runs_without_numpy():
    # a None entry in sys.modules makes every later `import numpy` raise ImportError;
    # manifest_text runs each command and its rerun from its own metadata
    proc = _python("-c", "import sys; sys.modules['numpy'] = None; "
                   "sys.path.insert(0, sys.argv[1]); from output_manifest import manifest_text; "
                   "print(manifest_text(), end='')", str(HERE))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == MANIFEST.read_text()
