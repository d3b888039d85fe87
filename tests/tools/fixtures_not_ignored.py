#!/usr/bin/env python3
"""No ignore rule may drop a test fixture.

Fixtures are hand-written test inputs; a blanket ignore rule for generated
artifacts (say, *.csv) silently keeps a new fixture out of every commit,
and the suite then fails only on a fresh checkout. This check asks
`git check-ignore --no-index` about every file under a tests/**/fixtures
directory and fails if any of them is ignored.

Usage: fixtures_not_ignored.py <repo-root>
Exits 0 when nothing is ignored, 1 when something is, and 77 (reported as
skipped by ctest) when git or the repository metadata is unavailable.
Registered via ctest (see tests/CMakeLists.txt).
"""

import os
import shutil
import subprocess
import sys

SKIP = 77


def fixture_files(root):
    paths = []
    for directory, subdirs, files in os.walk(os.path.join(root, "tests")):
        subdirs.sort()
        parts = os.path.relpath(directory, root).split(os.sep)
        if "fixtures" in parts:
            paths.extend(os.path.relpath(os.path.join(directory, name), root)
                         for name in sorted(files))
    return paths


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    if shutil.which("git") is None:
        print("skipped: git not found")
        return SKIP
    inside = subprocess.run(["git", "-C", root, "rev-parse", "--is-inside-work-tree"],
                            capture_output=True, text=True)
    if inside.returncode != 0:
        print("skipped: %s is not a git work tree" % root)
        return SKIP
    paths = fixture_files(root)
    if not paths:
        print("no fixture files found under %s/tests" % root)
        return 1
    # Without -v, only ignored paths are printed (a path that a negated
    # pattern re-includes is not). Exit status: 0 = some path ignored,
    # 1 = none ignored, anything else = an error.
    result = subprocess.run(["git", "-C", root, "check-ignore", "--no-index", "--stdin"],
                            input="\n".join(paths) + "\n", capture_output=True, text=True)
    if result.returncode == 1:
        print("ok: none of %d fixture files is ignored" % len(paths))
        return 0
    if result.returncode == 0:
        print("ignored fixture files:")
        print(result.stdout, end="")
        return 1
    print("git check-ignore failed (%d): %s" % (result.returncode, result.stderr))
    return 1

if __name__ == "__main__":
    sys.exit(main())
