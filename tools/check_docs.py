#!/usr/bin/env python3
"""Docs gate: keep the documentation true.

Three checks, all against the real tree and the real binary:

  1. flags    — two-way: every `--flag` token mentioned in docs/cli.md
                must be a flag row of `mvrob --help` (docs cannot
                advertise flags that do not exist), and every flag row
                of `mvrob --help` must be mentioned in docs/cli.md (no
                flag goes undocumented). The help text is rendered from
                the CLI's flag table.
  2. links    — every relative link in every *.md file of the repo must
                resolve to an existing file (anchors are stripped).
  3. tutorial — docs/tutorial.md is executable: each ```sh block is run
                in a scratch directory (with `mvrob` on PATH) and, when a
                ```text block immediately follows, every line of it must
                appear in the actual output, in order. The tutorial's
                output blocks are real output by construction.

Usage: tools/check_docs.py [path/to/mvrob]   (default build/tools/mvrob)
Exit 0 when all checks pass, 1 otherwise.
"""

import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# A flag row of the help screen: "  --name ...".
FLAG_ROW_RE = re.compile(r"^  (--[a-z][a-z0-9-]*)", re.MULTILINE)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL {msg}")


def check_flags(mvrob):
    help_text = subprocess.run(
        [mvrob, "--help"], capture_output=True, text=True
    ).stdout
    known = set(FLAG_ROW_RE.findall(help_text))
    doc = open(os.path.join(REPO, "docs", "cli.md")).read()
    documented = set(FLAG_RE.findall(doc))
    mismatches = [
        f"flags: docs/cli.md mentions {flag}, not in `mvrob --help`"
        for flag in sorted(documented - known - {"--help"})
    ] + [
        f"flags: `mvrob --help` lists {flag}, not in docs/cli.md"
        for flag in sorted(known - documented)
    ]
    if not known:
        mismatches.append("flags: `mvrob --help` lists no flags")
    for msg in mismatches:
        fail(msg)
    if not mismatches:
        print(f"ok flags: the {len(known)} flags of `mvrob --help` and "
              f"docs/cli.md match")


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d for d in dirs
            if not d.startswith(".") and d not in ("build", "third_party")
        ]
        for f in files:
            if f.endswith(".md"):
                yield os.path.join(root, f)


def check_links():
    checked = 0
    for path in markdown_files():
        base = os.path.dirname(path)
        rel = os.path.relpath(path, REPO)
        for target in LINK_RE.findall(open(path).read()):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            dest = target.split("#", 1)[0]
            if not dest:
                continue
            checked += 1
            if not os.path.exists(os.path.normpath(os.path.join(base, dest))):
                fail(f"links: {rel} -> {target} does not resolve")
    print(f"ok links: {checked} relative links resolve")


def tutorial_blocks():
    """Yield (sh_lines, expected_text_lines_or_None) pairs."""
    lines = open(os.path.join(REPO, "docs", "tutorial.md")).read().splitlines()
    blocks = []  # (lang, [lines])
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if m:
            lang, body = m.group(1), []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append((lang, body))
        i += 1
    for j, (lang, body) in enumerate(blocks):
        if lang != "sh":
            continue
        expected = None
        if j + 1 < len(blocks) and blocks[j + 1][0] == "text":
            expected = blocks[j + 1][1]
        yield body, expected


def check_tutorial(mvrob):
    bindir = tempfile.mkdtemp(prefix="mvrob-docs-bin-")
    os.symlink(os.path.abspath(mvrob), os.path.join(bindir, "mvrob"))
    workdir = tempfile.mkdtemp(prefix="mvrob-docs-tut-")
    env = dict(os.environ, PATH=bindir + os.pathsep + os.environ["PATH"])
    ran = 0
    for script, expected in tutorial_blocks():
        text = "\n".join(script)
        if "cmake" in text:  # the build step; the binary already exists
            continue
        proc = subprocess.run(
            ["bash", "-e", "-c", text], cwd=workdir, env=env,
            capture_output=True, text=True,
        )
        ran += 1
        head = next(l for l in script if l.strip())
        if proc.returncode != 0:
            fail(f"tutorial: `{head}` exited {proc.returncode}: "
                 f"{proc.stderr.strip()[:200]}")
            continue
        if expected is None:
            continue
        actual = proc.stdout.splitlines()
        pos = 0
        for want in expected:
            while pos < len(actual) and actual[pos] != want:
                pos += 1
            if pos == len(actual):
                fail(f"tutorial: `{head}` output is missing the "
                     f"documented line: {want!r}")
                break
            pos += 1
    print(f"ok tutorial: {ran} command blocks re-run against docs/tutorial.md")


def main():
    mvrob = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        REPO, "build", "tools", "mvrob")
    if not os.path.exists(mvrob):
        print(f"FAIL no mvrob binary at {mvrob} (build first)")
        return 1
    check_flags(mvrob)
    check_links()
    check_tutorial(mvrob)
    if failures:
        print(f"docs gate: {len(failures)} failure(s)")
        return 1
    print("docs gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
