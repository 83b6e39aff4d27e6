#!/usr/bin/env python3
"""Fail CI if the HTTP surface drifts out of the frozen /v1 contract.

The wire API is versioned: every endpoint lives under `/v1`, and an
unprefixed (pre-v1) spelling answers `404 not-found` on both tiers. This
script statically checks that contract:

  1. The `ENDPOINTS` inventory in api.rs is non-empty and all-`/v1`.
  2. Every inventoried endpoint is actually routed by the serve server
     and by the dispatch server.
  3. No route match-arm or client call in serve/dispatch/client source
     mentions an endpoint path outside `/v1` — i.e. nobody hand-registers
     an unversioned handler.
  4. Serve routes no unprefixed path either: nothing in the serve or
     dispatch request path rewrites a request path onto `/v1` or marks a
     response `Deprecation`, so an unprefixed path reaches the router as
     is and falls through to 404.

Run from the repo root: `python3 scripts/check_api_surface.py`.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
API = REPO / "crates/serve/src/api.rs"
SOURCES = [
    REPO / "crates/serve/src/server.rs",
    REPO / "crates/serve/src/client.rs",
    REPO / "crates/dispatch/src/server.rs",
]

errors = []


def fail(msg: str) -> None:
    errors.append(msg)


def strip_comments(text: str) -> str:
    """Drop // comments so prose mentioning legacy paths is not flagged."""
    return re.sub(r"//[^\n]*", "", text)


# -- 1. The inventory ---------------------------------------------------------

api_text = API.read_text()
table = re.search(r"pub const ENDPOINTS[^=]*=\s*&\[(.*?)\];", api_text, re.S)
if not table:
    sys.exit("FATAL: ENDPOINTS table not found in crates/serve/src/api.rs")

endpoints = re.findall(r'\("(\w+)",\s*"([^"]+)"\)', table.group(1))
if not endpoints:
    sys.exit("FATAL: ENDPOINTS table in api.rs is empty")

for method, path in endpoints:
    if not path.startswith("/v1/"):
        fail(f"api.rs ENDPOINTS: {method} {path} escaped the /v1 prefix")

# First path segments the API owns ("jobs", "healthz", ...): any string
# literal opening with one of these outside /v1 is an unversioned handler.
roots = {p.split("/")[2] for _, p in endpoints}

# -- 2. Inventory <-> router agreement ---------------------------------------

serve_text = (REPO / "crates/serve/src/server.rs").read_text()
dispatch_text = (REPO / "crates/dispatch/src/server.rs").read_text()
for who, text in [("serve", serve_text), ("dispatch", dispatch_text)]:
    for method, path in endpoints:
        # `{id}` segments are routed via a prefix match — check the literal
        # part up to the first placeholder.
        literal = path.split("{")[0]
        if literal not in text:
            fail(
                f"{who} server.rs never mentions {literal!r} "
                f"(inventoried as {method} {path})"
            )

# -- 3. No endpoint literal outside /v1 ---------------------------------------

root_pat = re.compile(r'"(/(?:%s)[^"]*)"' % "|".join(sorted(roots)))
for src in SOURCES:
    for lineno, line in enumerate(strip_comments(src.read_text()).splitlines(), 1):
        for lit in root_pat.findall(line):
            fail(
                f"{src.relative_to(REPO)}:{lineno}: endpoint literal {lit!r} "
                f"outside /v1 — aliases must go through canonical_path"
            )

# -- 4. No unprefixed path is routed ------------------------------------------

REQUEST_PATH = SOURCES + [REPO / "crates/serve/src/http.rs", API]
rewrite_pat = re.compile(r'format!\(\s*"/v1\{')
for src in REQUEST_PATH:
    for lineno, line in enumerate(strip_comments(src.read_text()).splitlines(), 1):
        where = f"{src.relative_to(REPO)}:{lineno}"
        if "canonical_path" in line or rewrite_pat.search(line):
            fail(f"{where}: request paths are rewritten onto /v1 — aliases are gone")
        if "Deprecation" in line:
            fail(f"{where}: emits a Deprecation marker — aliases are gone")

if errors:
    print("API surface check FAILED:", file=sys.stderr)
    for e in errors:
        print(f"  - {e}", file=sys.stderr)
    sys.exit(1)

print(
    f"API surface check OK: {len(endpoints)} endpoints, all under /v1; "
    f"no unprefixed routes"
)
