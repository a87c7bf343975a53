"""Count the lines of ``src/hornplex`` and its defaulted parameters.

    python3 scripts/count_settings.py [REV]

Run from the root of a checkout. Without ``REV`` the working tree's files
are read; with it, the files committed at ``REV`` (``git show REV:path``).
Lines are newline characters, as ``wc -l`` counts them. A defaulted
parameter is a positional parameter with a default or a keyword-only one
with a default, of any ``def``, ``async def`` or ``lambda`` (``ast``).
"""

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/hornplex"


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def sources(rev):
    """(path, text) of every ``.py`` file of the package, in path order."""
    if rev is None:
        paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / PACKAGE).rglob("*.py"))
        return [(path, (ROOT / path).read_text(encoding="utf-8")) for path in paths]
    paths = sorted(p for p in git("ls-tree", "-r", "--name-only", rev, PACKAGE).splitlines()
                   if p.endswith(".py"))
    return [(path, git("show", f"{rev}:{path}")) for path in paths]


def defaulted(text):
    """The defaulted parameters of the functions and lambdas in ``text``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, functions)
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision (default: the working tree)")
    args = parser.parse_args()
    files = sources(args.rev)
    lines = sum(text.count("\n") for _, text in files)
    params = sum(defaulted(text) for _, text in files)
    print(f"{args.rev or 'working tree'}: {lines} lines, {params} defaulted parameters "
          f"in {len(files)} files of {PACKAGE}")


if __name__ == "__main__":
    main()
