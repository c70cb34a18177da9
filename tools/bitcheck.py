#!/usr/bin/env python3
"""Compare this tree's command-line outputs with those of a git ref, byte for byte.

    python tools/bitcheck.py REF [--declare NAME:ASPECT[,ASPECT...]]...

REF's committed files are extracted with ``git archive`` into a
temporary directory, which needs no network and registers nothing in
the repository.  Each command of COMMANDS then runs under both trees,
each in a process of its own: ``bfamily.cli.main``, with that tree's
``src`` first on PYTHONPATH, started in an empty directory and writing
to ``--out out``.  The aspects compared are the exit code, stdout,
stderr and the files under the working directory.

One line per command says ``identical`` or names the aspects that
differ.  A difference given with ``--declare`` (a behaviour the change
alters on purpose) is still printed, marked ``declared``; any other
difference makes the exit status 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ASPECTS = ("exit", "stdout", "stderr", "files")

# b = 1e300 overflows on the first step, before any snapshot admits a fit
_OVERFLOW = ["--b", "1e300", "--modes", "32", "--initial", "type1", "--dt", "0.01",
             "--t-end", "1", "--sample-every", "1", "--fit-kmin", "2", "--fit-kmax", "10"]
# b = 4 type2 at K = 32: no fit passes the residual gate
_UNCLEAN = ["--b", "4", "--modes", "32", "--initial", "type2", "--dealias", "true",
            "--dt", "0.001", "--t-end", "1.0", "--sample-every", "20",
            "--fit-kmin", "2", "--fit-kmax", "5"]

# name: the bfamily arguments; every command but validate writes to --out out
COMMANDS = {
    "deep-track": ["track", "--b", "3.0", "--modes", "1024", "--dt", "0.0001",
                   "--t-end", "0.84", "--initial", "type1", "--dealias", "true",
                   "--sample-every", "25", "--fit-kmin", "64", "--fit-kmax", "300",
                   "--min-strip-width", "0.0006"],
    "sweep-k256": ["sweep", "--modes", "256", "--dt", "0.0005", "--t-end", "3.0",
                   "--initial", "type1", "--dealias", "true", "--sample-every", "50",
                   "--b-list", "0.0,1.0,2.0,3.0,4.0", "--workers", "2"],
    "validate": ["validate"],
    "unclean-track": ["track", *_UNCLEAN],
    "unclean-sweep": ["sweep", *_UNCLEAN, "--b-list", "4"],
    "extended-simulate": ["simulate", "--modes", "32", "--dt", "0.01", "--t-end", "0.1",
                          "--sample-every", "2", "--precision", "extended32"],
    "monitored-simulate": ["simulate", "--modes", "128", "--dt", "0.001", "--t-end", "1.0",
                           "--dealias", "true", "--sample-every", "20", "--fit-kmin", "10",
                           "--fit-kmax", "40", "--min-strip-width", "0.1"],
    "minus-one-sweep": ["sweep", "--modes", "64", "--dt", "0.001", "--t-end", "0.05",
                        "--sample-every", "10", "--dealias", "false", "--b-list=-1"],
    "minus-two-track": ["track", "--b=-2", "--modes", "128", "--dt", "0.001", "--t-end", "1.0",
                        "--dealias", "true", "--sample-every", "20", "--fit-kmin", "10",
                        "--fit-kmax", "40"],
    "extended-sweep": ["sweep", "--modes", "16", "--dt", "0.01", "--t-end", "0.05",
                       "--sample-every", "1", "--fit-kmin", "2", "--precision", "extended32",
                       "--b-list", "2,3", "--workers", "2"],
    "overflow-simulate": ["simulate", "--modes", "32", "--initial", "type2", "--dealias",
                          "false", "--dt", "0.5", "--t-end", "10", "--sample-every", "1"],
    "overflow-track": ["track", *_OVERFLOW],
    "overflow-sweep": ["sweep", *_OVERFLOW, "--b-list", "1e300"],
    # a bad integer flag: one configuration-error line, exit 2, no output
    "bad-workers-sweep": ["sweep", "--b-list", "2", "--workers", "2.5"],
    "bad-modes-validate": ["validate", "--modes", "2.5"],
}

_MAIN = "import sys; from bfamily.cli import main; sys.exit(main(sys.argv[1:]))"


def extract(ref: str, into: Path) -> None:
    """REF's committed files under ``into``, from ``git archive``."""
    archive = into.with_suffix(".tar")
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), ref],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"cannot extract {ref!r}: {done.stderr.strip()}")
    into.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(into)], check=True)


def run(tree: Path, args: list[str], workdir: Path) -> dict:
    """One command under ``tree``, in a new process started in ``workdir``: its aspects."""
    workdir.mkdir(parents=True)
    if args[0] != "validate":
        args = [*args, "--out", "out"]
    path = os.pathsep.join([str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", _MAIN, *args], cwd=workdir,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "files": files}


def differences(old: dict, new: dict) -> dict:
    """aspect: a short description, for each aspect in which the two runs differ."""
    found = {}
    if old["exit"] != new["exit"]:
        found["exit"] = f"exit {old['exit']} -> {new['exit']}"
    for aspect in ("stdout", "stderr"):
        if old[aspect] != new[aspect]:
            found[aspect] = aspect
    changed = sorted(name for name in old["files"].keys() | new["files"].keys()
                     if old["files"].get(name) != new["files"].get(name))
    if changed:
        shown = ", ".join(changed[:3]) + (", ..." if len(changed) > 3 else "")
        found["files"] = f"{len(changed)} files ({shown})"
    return found


def parse_declared(items: list[str]) -> dict:
    declared = {}
    for item in items:
        name, _, aspects = item.partition(":")
        wanted = set(aspects.split(","))
        if name not in COMMANDS or not wanted <= set(ASPECTS):
            raise SystemExit(f"--declare {item!r}: want NAME:ASPECT[,ASPECT...], "
                             f"NAME one of {', '.join(COMMANDS)}, ASPECT of {', '.join(ASPECTS)}")
        declared.setdefault(name, set()).update(wanted)
    return declared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref to compare against, e.g. HEAD or a commit")
    parser.add_argument("--declare", action="append", default=[], metavar="NAME:ASPECTS",
                        help="a difference the change makes on purpose (repeatable)")
    args = parser.parse_args(argv)
    declared = parse_declared(args.declare)
    undeclared = 0
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as scratch:
        base = Path(scratch) / "ref"
        extract(args.ref, base)
        for name, command in COMMANDS.items():
            old = run(base, command, Path(scratch) / "runs" / "ref" / name)
            new = run(ROOT, command, Path(scratch) / "runs" / "tree" / name)
            found = differences(old, new)
            if not found:
                print(f"{name:<20} identical", flush=True)
                continue
            texts = []
            for aspect, text in found.items():
                if aspect in declared.get(name, ()):
                    texts.append(f"{text} (declared)")
                else:
                    texts.append(text)
                    undeclared += 1
            print(f"{name:<20} differs: {'; '.join(texts)}", flush=True)
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
