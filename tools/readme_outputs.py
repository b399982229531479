"""Run every gmtlab command of README.md in a fresh directory and write a
manifest of what the commands leave there.

    python3 tools/readme_outputs.py --out manifest.txt
    python3 tools/readme_outputs.py --root /path/to/other/checkout --out other.txt
    cmp manifest.txt other.txt

Every `gmtlab ...` line of README.md's fenced blocks, with `\\`
continuations joined, runs as `python -m gmtlab.cli ...` with the
checkout's src/ on PYTHONPATH, in a new temporary directory. A command
that reads what another writes runs after it: README lists
`incidence --lines tubes/tubes.csv` before `tubes`. The manifest holds one
line per command with its exit code, then the sha256 of every file the
commands wrote, by relative path; a JSON report is hashed without its
`timing`, the one part that differs from run to run. Two checkouts whose
manifests are byte-identical give the same CSVs and reports. Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def readme_commands(text: str) -> list:
    """The argument lists of the `gmtlab` lines in the fenced blocks of a
    README, in order, without the leading `gmtlab`."""
    commands = []
    for block in _FENCE.findall(text):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            words = shlex.split(line)
            if words[:1] == ["gmtlab"]:
                commands.append(words[1:])
    return commands


def _out_dir(args: list) -> str:
    return args[args.index("--out") + 1] if "--out" in args else "."


def run_order(commands: list) -> list:
    """The commands in README order, except that each one runs after every
    command whose --out directory one of its arguments lies in."""
    def needs(b, a):
        return a is not b and any(w.startswith(_out_dir(a) + "/") for w in b)

    done, order = [], []
    while len(order) < len(commands):
        nxt = next(i for i, c in enumerate(commands) if i not in done
                   and all(j in done for j, a in enumerate(commands) if needs(c, a)))
        done.append(nxt)
        order.append(commands[nxt])
    return order


def file_digest(path: str) -> str:
    """sha256 of a file's bytes; of a `*-report.json` without `timing`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("-report.json"):
        report = json.loads(data)
        report.pop("timing", None)
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def manifest(workdir: str, exits: list) -> str:
    """One `exit <code>  <command>` line per command run, then one
    `<sha256>  <path>` line per file under workdir, paths sorted."""
    lines = [f"exit {code}  {shlex.join(args)}" for args, code in exits]
    paths = sorted(os.path.relpath(os.path.join(d, f), workdir)
                   for d, _, files in os.walk(workdir) for f in files)
    lines += [f"{file_digest(os.path.join(workdir, p))}  {p}" for p in paths]
    return "\n".join(lines) + "\n"


def run_readme(root: str) -> str:
    """Manifest of the README commands of the checkout at root."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        commands = run_order(readme_commands(fh.read()))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    exits = []
    with tempfile.TemporaryDirectory() as work:
        for args in commands:
            proc = subprocess.run([sys.executable, "-m", "gmtlab.cli", *args],
                                  cwd=work, env=env, capture_output=True, text=True)
            exits.append((args, proc.returncode))
        return manifest(work, exits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout whose README and src/ to run")
    parser.add_argument("--out", required=True, help="manifest file to write")
    args = parser.parse_args(argv)
    text = run_readme(args.root)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{text.count(chr(10))} manifest lines written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
