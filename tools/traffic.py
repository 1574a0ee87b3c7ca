"""List the kpwave functions that a run's traffic never enters.

    python3 tools/traffic.py [--scale 1.0]

Runs `run_theorem_suite` at `--scale`, then one set-up, one round and one
check of each kpbench workload at its full size, with a `sys.settrace`
hook that records each call into a function defined under `src/kpwave`.
Then it prints, one line each, every function (method, property and
nested function included) of `src/kpwave` that none of that traffic
entered, as `path:line qualified.name`, and a summary line on stderr.
A parameter that only such a function reads, or a check that only it
makes, is set by no run.

kpwave is imported from this checkout's `src/`, the workloads from
`kpbench/workloads.py`; nothing under `kpbench/` is changed, and every
output goes to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kpwave"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "kpbench")]


def defined_functions() -> dict:
    """{(file, first line of its code): (path:line, qualified name)} of
    every function of the package's sources, the first line being its
    first decorator's, as in the function's code object."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = (f"{path.relative_to(ROOT)}:{child.lineno}",
                                           prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path.resolve())
    return out


def traced(entered: set, fn, *args):
    """fn(*args) with every call into the package's files added to
    `entered` as (file, first line); no other frame is traced."""
    prefix = str(PACKAGE.resolve())

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        return None  # no line events: entries are enough

    sys.settrace(hook)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="theorem-suite scale")
    args = ap.parse_args(argv)

    import kpwave
    import workloads

    if PACKAGE.resolve() != Path(kpwave.__file__).resolve().parent:
        print(f"traffic: imported kpwave from {kpwave.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    entered, start = set(), time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traced(entered, kpwave.run_theorem_suite, Path(tmp) / "suite", args.scale)
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, False, Path(tmp) / name)
            try:
                state = traced(entered, wl.setup)
                traced(entered, wl.check, state, traced(entered, wl.round, state))
            finally:
                wl.close()

    defined = defined_functions()
    for key in sorted(set(defined) - entered):
        print(*defined[key])
    print(f"traffic: {len(set(defined) & entered)} of {len(defined)} kpwave functions "
          f"entered, in {time.perf_counter() - start:.0f} s (theorem-suite at scale "
          f"{args.scale} and one round of each kpbench workload)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
