#!/usr/bin/env python3
"""Grep gate: one membership virtual, no scalar probes, no planner strings, an allocation-free URL miss, a prefix-only blacklist seed, one request dispatch, one update decode site, one CPU dispatch site, a clock-free lock with metrics off, engine spans timed by one helper, flat tables on the URL-cache hit path, one publish-at-the-barrier table, no uncounted lock, a header-only Rng, a locale-free single-scan canonicalizer.

Membership has one implementation per store: PrefixStore::contains_many and
ProtocolClient::local_contains_many are the only membership virtuals, and
the scalar and 32-bit spellings (contains, contains32, contains_many32,
local_contains) are non-virtual batches over them.  A header under
src/storage/ or src/sb/ that declares one of those spellings `virtual` or
`override` brings back a second implementation for the tests to reconcile.

The per-tick lookup flow issues ONE batched probe per URL decomposition.
The scalar wrappers stay for tests and cold paths, but they must not creep
back into the files on the tick-loop hot path -- a scalar call per prefix
inside the dispatch loop silently undoes the batch design without failing
any functional test.

The tick planner (src/sim/user.cpp) deals only in 64-bit visit ids: a URL
string is built only on a URL-cache miss, where it is consumed.  Naming
`std::string` there would bring per-visit string traffic back into the plan.

Requests are dispatched once: Server::serve_frame decodes a request frame,
serves it and encodes the reply, and both the in-process transport and the
socket daemon hand it raw frames.  A file under src/net/ that names a
request tag (FrameType::k...Request) or calls a frame codec
(encode_/decode_ of a v1 lookup, full-hash, update or v4 update frame)
brings back a second dispatch whose query log and byte counts the
equivalence tests would have to reconcile.

A URL-cache miss allocates nothing once warm: the site table hands out a
slice of a packed site (WebCorpus::site_into) and LookupRequest::build runs
the canonicalize_into / decompose_into core on reused buffers.  The
allocating wrappers (url::canonicalize, url::decompose, WebCorpus::site)
and vectors of strings must not creep back into the files that build a
missed URL.

Engine setup seeds the blacklist from site prefixes: it draws the pages
to list from each site's page count, then generates the site only through
the last page drawn (WebCorpus::site_into with a page limit).  A call to
the whole-site WebCorpus::site in src/sim/engine.cpp generates and splits
every page of each site into strings again.

Update responses are decoded in one place: FrameTransport::send_update
(src/sb/transport.cpp) remembers the last frame each update channel decoded
and answers a repeated frame from that memo.  A call to
wire::decode_update_response or wire::decode_v4_update_response anywhere
else in src/ is a second decode path that bypasses the memo.

SHA-256 picks its block compression once, from CPUID, in one file:
src/crypto/sha256.cpp is the only source that includes <immintrin.h> or
<cpuid.h>, queries the CPU (__get_cpuid, __builtin_cpu_supports) or
compiles a function for another target (target(...)).  No file under
src/crypto/ reads the environment (getenv): nothing but the CPU chooses the
kernel, so a second dispatch site or a hidden knob fails here.

The shared-state mutexes lock through one helper, obs::TimedMutex
(src/obs/lock.hpp), which reads the clock only to time waits and holds
with metrics on.  A clock read (now_ns) there that no enclosing
`if (...metrics...)` guards would put two clock reads on every locked
update serve and sync-state build of a metrics-off run.

The engine times every span through one helper, obs::Stopwatch
(src/obs/phase.hpp), which reads the clock only with metrics on.  A bare
clock read (now_ns) in src/sim/engine.cpp is a hand-rolled timer whose
metrics-off guard nothing checks.

The shared re-sync caches (sb::Server's update encode cache, both
generations of sb::SyncStateCache) publish at the tick barrier through one
type, sb::PublishedTable (src/sb/published_table.hpp), the only holder of
an obs::TimedMutex.  Naming TimedMutex anywhere else in src/ starts a
second hand-written copy of its published/pending tables and merge.

Every lock the parallel phase takes is a counted obs::TimedMutex.  A
standard mutex or lock (std::mutex, std::lock_guard, std::unique_lock,
std::shared_mutex and their kin) in src/ outside the helper itself
(src/obs/lock.hpp) and the thread pool (src/sim/thread_pool.{hpp,cpp})
is a lock that no `locks` section counts.

A URL-cache hit reads one flat slot, and a stale one re-stamps through a
flat prefix set (src/sim/url_cache.hpp, src/sim/prefix_set.hpp).  A
std::unordered_set or std::unordered_map named in the engine
(src/sim/engine.{hpp,cpp}) or in those headers puts a bucket load and a
node chase back on the hit path.

The random generator util::Rng is header-only (src/util/rng.hpp): corpus
generation and traffic planning make several draws per page, and without
LTO an out-of-line draw costs more than the draw itself.  A
src/util/rng.cpp, or an Rng:: member defined in any other file under src/,
puts the generator back behind a call.

The canonicalizer runs on every URL-cache miss and lowers the host and
scheme with ASCII arithmetic, and the URL splitter finds the end of the
authority in one scan.  A call to std::tolower or std::toupper (a locale
lookup per byte) or to find_first_of (a search of the delimiter set per
byte) in src/url/canonicalize.cpp, src/url/url.cpp or src/util/strings.cpp
puts that cost back on the miss path.

This script fails (exit 1) if a membership wrapper is declared virtual or
override, if any hot-path file contains a scalar membership call, if a
string-free file names std::string, if a miss-path file calls an
allocating URL or site wrapper or names std::vector<std::string>, if a
file under src/net/ dispatches frames itself, if src/sim/engine.cpp
calls the whole-site WebCorpus::site, if an update response is
decoded outside src/sb/transport.cpp, or if CPU feature dispatch
appears outside src/crypto/sha256.cpp or getenv under src/crypto/, or if
src/obs/lock.hpp reads the clock outside `if (...metrics...)`, or if
src/sim/engine.cpp reads the clock itself, or if the engine or its URL
cache or prefix set names a node-based std::unordered_set or
std::unordered_map, or if a file other than
src/obs/lock.hpp and src/sb/published_table.hpp names TimedMutex, or if a
standard mutex or lock appears in src/ outside src/obs/lock.hpp and the
thread pool, or if src/util/rng.cpp exists or an Rng:: member is defined
outside src/util/rng.hpp, or if the canonicalizer's files call
std::tolower, std::toupper or find_first_of.  Line comments and block comments are stripped
before matching so prose mentioning the forbidden API is fine.

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

# Files on the URL-cache miss path: the allocation-free core only.
MISS_PATH_FILES = ["src/sb/lookup_request.cpp", "src/sim/traffic_model.cpp"]
ALLOCATING = [
    (re.compile(r"\burl::canonicalize\s*\("), "allocating url::canonicalize"),
    (re.compile(r"\burl::decompose\s*\("), "allocating url::decompose"),
    (re.compile(r"\bcorpus_\s*\.\s*site\s*\("), "allocating WebCorpus::site"),
    (re.compile(r"\bstd::vector\s*<\s*std::string\s*>"), "std::vector<std::string>"),
]

# Engine setup takes corpus pages from site_into prefixes only.
PREFIX_SEED_FILES = ["src/sim/engine.cpp"]
WHOLE_SITE = [
    (re.compile(r"\bcorpus\s*\.\s*site\s*\("), "corpus.site"),
    (re.compile(r"\bWebCorpus::site\s*\("), "WebCorpus::site"),
]

# Files that carry frames without looking inside them: no request tags and
# no frame codec calls (the envelope codec is fine).
FRAME_CARRIER_DIRS = ["src/net"]
FRAME_DISPATCH = [
    (re.compile(r"\bFrameType::k\w*Request\b"), "request tag"),
    (re.compile(r"\b(?:encode|decode)_(?:v1_lookup|full_hash|update|v4_update)_"
                r"(?:request|response)\s*\("), "frame codec call"),
]

# Update responses are decoded only behind the transport's decode memo (the
# frame codec itself declares and defines the decoders).
UPDATE_DECODE_FILE = "src/sb/transport.cpp"
UPDATE_CODEC_FILES = ("src/sb/wire/frames.hpp", "src/sb/wire/frames.cpp")
UPDATE_DECODE = re.compile(r"\bdecode_(?:v4_)?update_response\b")

# CPU feature dispatch lives in one file; the crypto layer reads no
# environment.
CPU_DISPATCH_FILE = "src/crypto/sha256.cpp"
CPU_DISPATCH = [
    (re.compile(r"<\s*immintrin\.h\s*>"), "<immintrin.h>"),
    (re.compile(r"<\s*cpuid\.h\s*>"), "<cpuid.h>"),
    (re.compile(r"\b__get_cpuid"), "__get_cpuid"),
    (re.compile(r"\b__builtin_cpu_supports\b"), "__builtin_cpu_supports"),
    (re.compile(r"\btarget\s*\("), "target(...) attribute"),
]
NO_ENV_DIR = "src/crypto"
GETENV = re.compile(r"\bgetenv\b")

# The timed lock helper reads the clock only under a metrics check.
TIMED_LOCK_FILE = "src/obs/lock.hpp"
CLOCK_READ = re.compile(r"\bnow_ns\s*\(")
METRICS_IF = r"\bif\s*\([^()]*\bmetrics_?\b[^()]*\)\s*"
METRICS_STATEMENT = re.compile(r"\s*" + METRICS_IF)  # at a statement start
METRICS_BLOCK = re.compile(METRICS_IF + "$")  # just before a block's `{`

# The engine times its spans through obs::Stopwatch only.
STOPWATCH_ONLY_FILE = "src/sim/engine.cpp"

# The engine's hit path keeps flat tables only: no node-based set or map.
FLAT_TABLE_FILES = ("src/sim/engine.hpp", "src/sim/engine.cpp",
                    "src/sim/url_cache.hpp", "src/sim/prefix_set.hpp")
NODE_TABLE = re.compile(r"\bstd::unordered_(?:set|map)\b")

# The timed mutex is held only by the publish-at-the-barrier table.
PUBLISHED_TABLE_FILE = "src/sb/published_table.hpp"
TIMED_MUTEX = re.compile(r"\bTimedMutex\b")

# Standard mutexes and locks: only the timed lock helper and the thread pool.
RAW_LOCK_FILES = (TIMED_LOCK_FILE, "src/sim/thread_pool.hpp",
                  "src/sim/thread_pool.cpp")
RAW_LOCK = re.compile(r"\bstd::(?:(?:recursive_|timed_|shared_|shared_timed_)?mutex"
                      r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# The random generator is defined in its header only.
RNG_HEADER = "src/util/rng.hpp"
RNG_SOURCE = "src/util/rng.cpp"
RNG_MEMBER = re.compile(r"\bRng\s*::\s*(?:~?\w+|operator\s*\(\s*\))\s*\(")

# Headers whose membership wrappers must stay non-virtual: a declaration of
# one of WRAPPERS that says `virtual` or `override` is a second
# implementation of membership.
MEMBERSHIP_HEADER_DIRS = ["src/storage", "src/sb"]
WRAPPERS = re.compile(r"\b(contains|contains32|contains_many32|local_contains)\s*\(")
VIRTUAL = re.compile(r"\b(?:virtual|override)\b")

# The canonicalizer's files: ASCII case mapping and single-scan splitting.
CANONICALIZER_FILES = ("src/url/canonicalize.cpp", "src/url/url.cpp",
                       "src/util/strings.cpp")
PER_BYTE_CALL = [
    (re.compile(r"\bstd::(?:tolower|toupper)\s*\("), "std::tolower/std::toupper"),
    (re.compile(r"\bfind_first_of\s*\("), "find_first_of"),
]

LINE_COMMENT = re.compile(r"//.*$")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    text = BLOCK_COMMENT.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    return "\n".join(LINE_COMMENT.sub("", line) for line in text.splitlines())


def virtual_wrappers(text: str):
    """Yields (line, name, declaration) for each wrapper declared virtual."""
    for match in WRAPPERS.finditer(text):
        start = max(text.rfind(c, 0, match.start()) for c in ";{}") + 1
        ends = [i for i in (text.find(c, match.end()) for c in ";{") if i != -1]
        statement = text[start:min(ends, default=len(text))]
        if VIRTUAL.search(statement):
            yield (text.count("\n", 0, match.start()) + 1, match.group(1),
                   " ".join(statement.split()))


def rng_member_definitions(text: str):
    """Yields (line, definition) for each Rng:: member defined out of line:
    a qualified name whose statement opens a body before it ends."""
    for match in RNG_MEMBER.finditer(text):
        brace = text.find("{", match.end())
        semicolon = text.find(";", match.end())
        if brace != -1 and (semicolon == -1 or brace < semicolon):
            start = max(text.rfind(c, 0, match.start()) for c in ";{}") + 1
            yield (text.count("\n", 0, match.start()) + 1,
                   " ".join(text[start:brace].split()))


def unguarded_clock_reads(text: str):
    """Yields (line, statement) for each clock read that neither a braceless
    `if (...metrics...)` nor any enclosing `if (...metrics...) {` block
    guards."""
    for match in CLOCK_READ.finditer(text):
        start = max(text.rfind(c, 0, match.start()) for c in ";{}") + 1
        end = text.find(";", match.end())
        statement = text[start:end if end != -1 else len(text)]
        guarded = METRICS_STATEMENT.match(text, start)
        depth = 0
        for i in range(match.start() - 1, -1, -1):
            if guarded:
                break
            if text[i] == "}":
                depth += 1
            elif text[i] == "{":
                if depth > 0:
                    depth -= 1
                else:
                    guarded = METRICS_BLOCK.search(text, 0, i)
        if not guarded:
            yield (text.count("\n", 0, match.start()) + 1,
                   " ".join(statement.split()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=".", help="repository root (default: cwd)")
    args = parser.parse_args()
    root = pathlib.Path(args.repo_root)

    violations = []
    headers = sorted(header for folder in MEMBERSHIP_HEADER_DIRS
                     for header in (root / folder).rglob("*.hpp"))
    if not headers:
        print("check_hot_path: no headers under " + ", ".join(MEMBERSHIP_HEADER_DIRS),
              file=sys.stderr)
        return 1
    for header in headers:
        rel = header.relative_to(root).as_posix()
        for lineno, name, text in virtual_wrappers(strip_comments(header.read_text())):
            violations.append((rel, lineno, f"virtual membership wrapper {name}", text))

    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.is_file():
            print(f"check_hot_path: missing hot-path file {rel}", file=sys.stderr)
            return 1
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, label in FORBIDDEN:
                if pattern.search(line):
                    violations.append((rel, lineno, label, line.strip()))
            if rel in STRING_FREE_FILES and STD_STRING.search(line):
                violations.append((rel, lineno, "std::string in the planner",
                                   line.strip()))

    for rel in MISS_PATH_FILES:
        path = root / rel
        if not path.is_file():
            print(f"check_hot_path: missing miss-path file {rel}", file=sys.stderr)
            return 1
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, label in ALLOCATING:
                if pattern.search(line):
                    violations.append((rel, lineno, f"miss path ({label})",
                                       line.strip()))

    for rel in PREFIX_SEED_FILES:
        path = root / rel
        if not path.is_file():
            print(f"check_hot_path: missing setup file {rel}", file=sys.stderr)
            return 1
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, label in WHOLE_SITE:
                if pattern.search(line):
                    violations.append((rel, lineno, f"whole-site seed ({label})",
                                       line.strip()))

    carriers = sorted(path for folder in FRAME_CARRIER_DIRS
                      for path in (root / folder).rglob("*")
                      if path.suffix in (".cpp", ".hpp"))
    if not carriers:
        print("check_hot_path: no sources under " + ", ".join(FRAME_CARRIER_DIRS),
              file=sys.stderr)
        return 1
    for path in carriers:
        rel = path.relative_to(root).as_posix()
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, label in FRAME_DISPATCH:
                if pattern.search(line):
                    violations.append((rel, lineno, f"frame dispatch ({label})",
                                       line.strip()))

    sources = sorted(path for path in (root / "src").rglob("*")
                     if path.suffix in (".cpp", ".hpp"))
    for required in (CPU_DISPATCH_FILE, UPDATE_DECODE_FILE, TIMED_LOCK_FILE,
                     PUBLISHED_TABLE_FILE, RNG_HEADER, *FLAT_TABLE_FILES,
                     *CANONICALIZER_FILES):
        if not (root / required).is_file():
            print(f"check_hot_path: missing file {required}", file=sys.stderr)
            return 1
    for path in sources:
        rel = path.relative_to(root).as_posix()
        stripped = strip_comments(path.read_text())
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if (rel != UPDATE_DECODE_FILE and rel not in UPDATE_CODEC_FILES
                    and UPDATE_DECODE.search(line)):
                violations.append((rel, lineno, "update decode outside the "
                                   "transport's memo", line.strip()))
            if rel != CPU_DISPATCH_FILE:
                for pattern, label in CPU_DISPATCH:
                    if pattern.search(line):
                        violations.append((rel, lineno, f"CPU dispatch ({label})",
                                           line.strip()))
            if rel.startswith(NO_ENV_DIR + "/") and GETENV.search(line):
                violations.append((rel, lineno, "getenv in the crypto layer",
                                   line.strip()))
            if (rel not in (TIMED_LOCK_FILE, PUBLISHED_TABLE_FILE)
                    and TIMED_MUTEX.search(line)):
                violations.append((rel, lineno, "TimedMutex outside "
                                   "sb::PublishedTable", line.strip()))
            if rel == STOPWATCH_ONLY_FILE and CLOCK_READ.search(line):
                violations.append((rel, lineno, "clock read outside "
                                   "obs::Stopwatch", line.strip()))
            if rel in FLAT_TABLE_FILES and NODE_TABLE.search(line):
                violations.append((rel, lineno, "node-based table on the "
                                   "URL-cache hit path", line.strip()))
            if rel not in RAW_LOCK_FILES and RAW_LOCK.search(line):
                violations.append((rel, lineno, "uncounted standard lock",
                                   line.strip()))
            if rel in CANONICALIZER_FILES:
                for pattern, label in PER_BYTE_CALL:
                    if pattern.search(line):
                        violations.append((rel, lineno, f"per-byte call "
                                           f"({label}) in the canonicalizer",
                                           line.strip()))
        if rel != RNG_HEADER:
            for lineno, text in rng_member_definitions(stripped):
                violations.append((rel, lineno, "Rng member defined outside "
                                   "its header", text))
    if (root / RNG_SOURCE).exists():
        violations.append((RNG_SOURCE, 1, "out-of-line Rng source",
                           "the generator is header-only"))
    lock_text = strip_comments((root / TIMED_LOCK_FILE).read_text())
    for lineno, text in unguarded_clock_reads(lock_text):
        violations.append((TIMED_LOCK_FILE, lineno,
                           "clock read outside if (metrics)", text))

    if violations:
        print("check_hot_path: forbidden declarations, calls or types:")
        for rel, lineno, label, text in violations:
            print(f"  {rel}:{lineno}: {label}: {text}")
        print("override only contains_many / local_contains_many; call the batch "
              "forms on the hot path; plan visit ids, build URLs via "
              "TrafficModel::url_of; build missed URLs with site_into / "
              "canonicalize_into / decompose_into; seed from site_into "
              "prefixes; hand src/net frames to "
              "Server::serve_frame; decode update responses only in " +
              UPDATE_DECODE_FILE + "; keep CPU dispatch in " + CPU_DISPATCH_FILE +
              "; read the clock in " + TIMED_LOCK_FILE + " only under "
              "if (metrics); time " + STOPWATCH_ONLY_FILE + " spans with "
              "obs::Stopwatch; keep " + ", ".join(FLAT_TABLE_FILES) +
              " on flat tables; lock shared caches through " +
              PUBLISHED_TABLE_FILE + "; take no standard lock outside " +
              ", ".join(RAW_LOCK_FILES) + "; define util::Rng only in " +
              RNG_HEADER + "; lower ASCII by hand and split URLs in one "
              "scan in " + ", ".join(CANONICALIZER_FILES))
        return 1

    print(f"check_hot_path: OK ({len(headers)} headers with non-virtual wrappers, "
          f"{len(HOT_PATH_FILES)} hot-path files batch-only, "
          f"{len(STRING_FREE_FILES)} string-free, "
          f"{len(MISS_PATH_FILES)} miss-path files allocation-free, "
          f"{len(PREFIX_SEED_FILES)} setup file seeding from prefixes, "
          f"{len(carriers)} src/net files frame-opaque, "
          f"update decodes only in {UPDATE_DECODE_FILE}, "
          f"CPU dispatch only in {CPU_DISPATCH_FILE}, "
          f"clock reads in {TIMED_LOCK_FILE} only with metrics on, "
          f"{STOPWATCH_ONLY_FILE} timed by obs::Stopwatch, "
          f"{len(FLAT_TABLE_FILES)} hit-path files on flat tables, "
          f"TimedMutex only in {PUBLISHED_TABLE_FILE}, "
          f"standard locks only in {', '.join(RAW_LOCK_FILES)}, "
          f"Rng defined only in {RNG_HEADER}, "
          f"{len(CANONICALIZER_FILES)} canonicalizer files without "
          f"per-byte calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
