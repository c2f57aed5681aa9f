"""Rewrite the golden CLI outputs of ``test_cli.GOLDEN_COMMANDS``.

Usage: PYTHONPATH=src python tests/regenerate_golden.py [FILE ...]
Overwrites tests/data/golden/FILE for each FILE named, or every golden file
when none is.  Only do this after an intended change of the output, and say
which fields moved; ``test_cli.TestDeterminism.test_golden_bytes`` compares
the output with these files byte for byte.
"""
import sys

from pathgap.cli import main as pathgap

from test_cli import GOLDEN, GOLDEN_COMMANDS


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(GOLDEN_COMMANDS))
    if unknown:
        raise SystemExit(f"no golden command for {', '.join(unknown)}")
    for name, args in GOLDEN_COMMANDS.items():
        if names and name not in names:
            continue
        out = GOLDEN / name
        code = pathgap(args + ["--no-timestamp", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: pathgap exited {code}")
        print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
