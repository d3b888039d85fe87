#!/usr/bin/env python3
"""No dead modules in src/.

A module is a header under src/ (with its .cpp). It is dead when nothing
includes the header except its own .cpp, the tests and the umbrella header
src/anyqos.h: no library code, front end, bench, tool or perfbench file
uses it. Unused code is deleted rather than maintained, so every dead module
must be on the allow-list below with the reason it stays. An allow-list
entry that is no longer dead (or no longer exists) fails too, so the list
cannot go stale.

Usage: dead_modules.py <repo-root>
Exits 0 when every dead module is allowed, 1 otherwise.
Registered via ctest (see tests/CMakeLists.txt).
"""

import os
import re
import sys

# Module (header path without the .h) -> why it stays although only its
# tests reach it.
ALLOWED = {
    "src/sched/wfq": "packet-level WFQ / Virtual Clock that verify the Section 6 "
                     "delay-to-bandwidth mapping against core::wfq_delay_bound",
    "src/analysis/wdb_meanfield": "backs the <WD/D+B,1> mean-field extension",
}

CONSUMERS = ("src", "tools", "examples", "bench", "perfbench", "tests")
UMBRELLA = "src/anyqos.h"
INCLUDE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+\.h)"', re.MULTILINE)


def source_files(root):
    for top in CONSUMERS:
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cpp")):
                    path = os.path.join(directory, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    headers = []
    includers = {}
    for path in source_files(root):
        if path.startswith("src/") and path.endswith(".h") and path != UMBRELLA:
            headers.append(path)
        with open(os.path.join(root, path), encoding="utf-8") as handle:
            for header in INCLUDE.findall(handle.read()):
                includers.setdefault(header, set()).add(path)

    dead = set()
    for header in headers:
        module = header[:-2]
        users = [user for user in includers.get(header, ())
                 if user not in (module + ".cpp", UMBRELLA) and not user.startswith("tests/")]
        if not users:
            dead.add(module)

    problems = ["%s: reached only from its tests and %s; delete it or allow-list it "
                "with a reason" % (module, UMBRELLA) for module in sorted(dead - set(ALLOWED))]
    problems += ["%s: allow-listed but no longer dead; drop the entry" % module
                 for module in sorted(set(ALLOWED) - dead)]
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("ok: %d modules, %d dead and allow-listed" % (len(headers), len(dead)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
