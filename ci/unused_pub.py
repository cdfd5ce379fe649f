#!/usr/bin/env python3
"""Report-only scan for unused public items in the library crates.

Lists every `pub fn`, `pub struct`/`enum`/`trait`/`type`, and
`pub const`/`static` declared in a library crate (`crates/*/src`) whose
name appears in no other non-test source file: other library files,
benches, examples, the umbrella crate (`src/`) and the repository
benchmark (`perfbench/src`) count as users; `#[cfg(test)]` items and
`tests/` directories do not. Matching is by identifier, so a common name
(`new`, `len`) is never reported even when this particular item is dead;
the report has false negatives, not false positives beyond macros.

It always exits 0: the listing is a starting point for deleting dead
code, not a gate.

Usage:
    python3 ci/unused_pub.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def strip_comments(line):
    """Drop a trailing `//` comment (doc comments included), ignoring `//`
    inside string literals."""
    in_str = False
    i = 0
    while i < len(line) - 1:
        c = line[i]
        if c == "\\" and in_str:
            i += 2
            continue
        if c == '"':
            in_str = not in_str
        elif not in_str and line.startswith("//", i):
            return line[:i]
        i += 1
    return line


def non_test_lines(path):
    """(line number, code) pairs of `path` outside `#[cfg(test)]` items."""
    out = []
    skip_depth = None  # brace depth to return to; None = not skipping
    pending_cfg_test = False
    depth = 0
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = strip_comments(raw)
        if skip_depth is None and line.strip().startswith("#[cfg(test)]"):
            pending_cfg_test = True
            continue
        opens, closes = line.count("{"), line.count("}")
        if pending_cfg_test and skip_depth is None and line.strip():
            pending_cfg_test = False
            if opens > closes:
                skip_depth = depth
            depth += opens - closes
            continue
        depth += opens - closes
        if skip_depth is not None:
            if depth <= skip_depth:
                skip_depth = None
            continue
        out.append((n, line))
    return out


def main():
    libs = sorted(p for p in ROOT.glob("crates/*/src/**/*.rs"))
    users = set(libs)
    for pattern in ("crates/*/benches/**/*.rs", "examples/**/*.rs",
                    "src/**/*.rs", "perfbench/src/**/*.rs"):
        users.update(ROOT.glob(pattern))
    lines = {p: non_test_lines(p) for p in users}
    idents = {p: set(IDENT.findall("\n".join(l for _, l in ls)))
              for p, ls in lines.items()}

    unused = []
    for path in libs:
        for n, line in lines[path]:
            m = ITEM.match(line)
            if not m:
                continue
            kind, name = m.groups()
            if not any(name in ids for p, ids in idents.items() if p != path):
                unused.append((path.relative_to(ROOT), n, kind, name))

    print(f"unused pub items (report only, {len(unused)}):")
    for path, n, kind, name in unused:
        print(f"  {path}:{n}: pub {kind} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
