#!/usr/bin/env python3
"""Grep gate: no scalar membership probes and no planner strings on the hot path.

The batch storage API (PrefixStore::contains_many / contains_many32,
ProtocolClient::local_contains_many) exists so the per-tick lookup flow
issues ONE batched probe per URL decomposition instead of a scalar call
per prefix.  Scalar `contains` stays on the interfaces for tests and cold
paths, but it must not creep back into the files on the tick-loop hot
path -- a single scalar call inside the dispatch loop silently undoes the
batch redesign without failing any functional test.

The tick planner (src/sim/user.cpp) deals only in 64-bit visit ids: a URL
string is built only on a URL-cache miss, where it is consumed.  Naming
`std::string` there would bring per-visit string traffic back into the plan.

This script fails (exit 1) if any hot-path file contains a scalar
membership call, or if a string-free file names std::string.  Line comments
and block comments are stripped before matching so prose mentioning the
forbidden API is fine.

Usage: python3 tools/check_hot_path.py [--repo-root DIR]
"""

import argparse
import pathlib
import re
import sys

# Files on the per-tick hot path: tick planning, engine dispatch/prefilter
# and the protocol-client lookup flow.  Extend this list when new code lands
# between plan_user_tick and the query log.
HOT_PATH_FILES = [
    "src/sim/user.cpp",
    "src/sim/traffic_model.cpp",
    "src/sim/engine.cpp",
    "src/sb/protocol.cpp",
    "src/sb/client.cpp",
    "src/sb/protocol_v4.cpp",
]

# Scalar membership probes.  Batch entry points (contains_many,
# contains_many32, local_contains_many) are the only sanctioned spellings
# on the hot path.
FORBIDDEN = [
    (re.compile(r"\blocal_contains\s*\("), "scalar ProtocolClient::local_contains"),
    (re.compile(r"\bcontains32\s*\("), "scalar PrefixStore::contains32"),
    (re.compile(r"(?:->|\.)\s*contains\s*\("), "scalar PrefixStore::contains"),
]

# Hot-path files that must not name std::string at all: the planner works
# in visit ids.
STRING_FREE_FILES = ["src/sim/user.cpp"]
STD_STRING = re.compile(r"\bstd::string\b")

# Scalar *implementations* are allowed to exist (the virtual methods live
# somewhere); what is forbidden is calling them from hot-path code.  A
# definition line looks like `bool Client::local_contains(...)`.
DEFINITION = re.compile(r"^\s*(\[\[nodiscard\]\]\s*)?(virtual\s+)?bool\s+[\w:]+contains\w*\s*\(")

LINE_COMMENT = re.compile(r"//.*$")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    text = BLOCK_COMMENT.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return "\n".join(LINE_COMMENT.sub("", line) for line in text.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=".", help="repository root (default: cwd)")
    args = parser.parse_args()
    root = pathlib.Path(args.repo_root)

    violations = []
    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.is_file():
            print(f"check_hot_path: missing hot-path file {rel}", file=sys.stderr)
            return 1
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if DEFINITION.search(line):
                continue
            for pattern, label in FORBIDDEN:
                if pattern.search(line):
                    violations.append((rel, lineno, label, line.strip()))
            if rel in STRING_FREE_FILES and STD_STRING.search(line):
                violations.append((rel, lineno, "std::string in the planner",
                                   line.strip()))

    if violations:
        print("check_hot_path: forbidden calls or types on the hot path:")
        for rel, lineno, label, text in violations:
            print(f"  {rel}:{lineno}: {label}: {text}")
        print("use contains_many / contains_many32 / local_contains_many for "
              "membership; plan visit ids, build URLs via TrafficModel::url_of")
        return 1

    print(f"check_hot_path: OK ({len(HOT_PATH_FILES)} hot-path files batch-only, "
          f"{len(STRING_FREE_FILES)} string-free)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
