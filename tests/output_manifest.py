"""The output manifest: a SHA-256 digest of every output of the end-to-end commands.

``COMMANDS`` is the one fixed list of end-to-end commands.  Each runs
in-process through ``thzsecmap.cli.run`` on a shipped config, into its own
output directory, and then again with the same argv from its own
``*_metadata.json`` as the config; every output of the rerun must equal the
first run's, or ``manifest_text`` raises naming the command and the output.
The manifest holds one line per output of the first run,
``<sha256>  <command>/<output>``, sorted by name:

- ``stdout``, the command's standard output with its output directory
  written as ``<out>``;
- each data file (CSV, PGM) and each ``*_metadata.json``, as written.

``test_output_manifest.py`` runs each command and compares its lines with
those of the committed ``output_manifest.txt``; ``test_startup.py``
regenerates the whole manifest in an interpreter that cannot import numpy
and compares it with that file, and CI runs this script against the
installed package, with a file opened in the platform's default encoding
as an error, and checks that the committed file is unchanged.  A change
that alters outputs on purpose rewrites that file with this script and
lists each changed entry:

    PYTHONPATH=src python tests/output_manifest.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import thzsecmap
from thzsecmap.cli import run

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "output_manifest.txt"
CONFIGS = HERE.parent / "src" / "thzsecmap" / "configs"
CELL = CONFIGS / "scenario1_cell.json"
DIRECTED = CONFIGS / "scenario2_directed.json"


def _commands() -> dict:
    """Command name -> (config, argv without --config and --out)."""
    commands = {}
    for name, config in (("cell", CELL), ("directed", DIRECTED)):
        for resolution in ("0.25", "0.5", "1.0", "2.0"):
            commands[f"{name}-map-{resolution}"] = config, ["map", "--resolution", resolution]
        commands[f"{name}-plan"] = config, ["plan"]
        commands[f"{name}-link"] = config, ["link"]
    commands["cell-radial"] = CELL, ["radial"]
    for delta in ("1e-3", "0.5"):
        commands[f"cell-threshold-{delta}"] = CELL, ["threshold", "--delta", delta]
    for variable, values in (("n", "500,2000,8000"), ("G_E", "5,10,25"), ("G_A", "8,10,12")):
        commands[f"cell-sweep-{variable}"] = CELL, ["sweep", "--variable", variable,
                                                    "--values", values]
    for resolution in ("4.0", "0.25"):
        commands[f"directed-sweep-d_AB-{resolution}"] = DIRECTED, [
            "sweep", "--variable", "d_AB", "--values", "5,30",
            "--area-resolution", resolution]
    commands["directed-sweep-G_A"] = DIRECTED, ["sweep", "--variable", "G_A",
                                                "--values", "15,20,25"]
    # docs/calibration.md's table
    commands["cell-sweep-power.transmit_mw"] = CELL, ["sweep", "--variable", "power.transmit_mw",
                                                      "--values", "1.5,2,2.5,3,4,9"]
    # heights other than the shipped ones: a rounding error in the height frame shows here
    commands["cell-sweep-l_AB"] = CELL, ["sweep", "--variable", "l_AB",
                                         "--values", "1.7,3.5,6.9"]
    commands["directed-sweep-l_AB"] = DIRECTED, ["sweep", "--variable", "l_AB",
                                                 "--values", "0.3,8.5,13.1",
                                                 "--area-resolution", "4.0"]
    return commands


COMMANDS = _commands()


def _run(name: str, config: Path, argv: list[str], out: Path) -> dict[str, bytes]:
    """Output name -> the bytes that the manifest digests, for one run into ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([*argv, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name} exited {code}: {stderr.getvalue().strip()}")
    outputs = {"stdout": stdout.getvalue().replace(str(out), "<out>").encode()}
    outputs.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
    return outputs


def _outputs(name: str, config: Path, argv: list[str], workdir: Path) -> dict[str, bytes]:
    """The outputs of one command, once its rerun from its own metadata has matched them."""
    outputs = _run(name, config, argv, workdir / "first" / name)
    metadata = workdir / "first" / name / f"{argv[0]}_metadata.json"
    replayed = _run(name, metadata, argv, workdir / "replay" / name)
    for output in sorted(outputs.keys() | replayed.keys()):
        if outputs.get(output) != replayed.get(output):
            raise RuntimeError(f"{name}/{output} differs when {name} reruns with "
                               f"--config {metadata.name}")
    return outputs


def command_lines(name: str, workdir: Path) -> list[str]:
    """The manifest lines of one command of ``COMMANDS``, run under ``workdir``."""
    config, argv = COMMANDS[name]
    return [f"{hashlib.sha256(data).hexdigest()}  {name}/{output}\n"
            for output, data in sorted(_outputs(name, config, argv, workdir).items())]


def manifest_text() -> str:
    """The manifest of the outputs of ``COMMANDS``, run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = [line for name in COMMANDS for line in command_lines(name, Path(tmp))]
    return "".join(sorted(lines, key=lambda line: line.split("  ", 1)[1]))


def main() -> None:
    text = manifest_text()
    MANIFEST.write_text(text, encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(text.splitlines())} outputs of the package at "
          f"{Path(thzsecmap.__file__).parent})", file=sys.stderr)


if __name__ == "__main__":
    main()
