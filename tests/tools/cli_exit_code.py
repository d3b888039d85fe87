#!/usr/bin/env python3
"""Invalid command-line input must exit 2 with a diagnostic, never abort.

Runs a front-end binary with arguments it must reject and checks that it
exits with code 2 (usage error) rather than dying on an uncaught exception
(SIGABRT, exit 134), and that stderr names the problem and points at usage.

Usage: cli_exit_code.py <binary> [args...]
Registered via ctest (see examples/CMakeLists.txt).
"""

import os
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    binary, args = sys.argv[1], sys.argv[2:]
    result = subprocess.run([binary] + args, capture_output=True, text=True, timeout=60)
    name = os.path.basename(binary)
    lines = result.stderr.splitlines()
    problems = []
    if result.returncode != 2:
        problems.append(f"exit code {result.returncode}, expected 2")
    if not lines or not lines[0].startswith(name + ": "):
        problems.append(f"first stderr line does not start with '{name}: '")
    if not any(line.startswith("usage: ") for line in lines):
        problems.append("no usage line on stderr")
    if problems:
        print(f"{name} {' '.join(args)}:")
        for problem in problems:
            print(f"  {problem}")
        print("stderr was:\n" + result.stderr)
        return 1
    print(f"ok: {name} {' '.join(args)} -> exit 2: {lines[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
