#!/usr/bin/env python3
"""Documentation consistency gate (the `docs_check` ctest target).

Three checks, all stdlib-only:

1. Every intra-repository markdown link in the scanned documents
   resolves to an existing file (or directory).  External links
   (http/https/mailto) and pure in-page anchors are ignored; a
   `#fragment` suffix on a file link is stripped before the existence
   check (fragments are not validated).

2. Every `docs/*.md` file is referenced from README.md's
   "Documentation index" section, so a new document cannot be added
   without surfacing it where readers start.

3. Every inline-code span that cites a repository path -- one under a
   source tree (src/, tests/, bench/, ...) whose last component has a
   file suffix or a glob -- names at least one existing file, after
   expanding `{a,b}` alternatives and `*` globs and dropping a
   trailing `:line` or `:first-last` reference.  So
   `src/mem/csb.{hh,cc}` needs both files and `tests/mem/test_csb*.cpp`
   at least one match.

Scanned documents: README.md, DESIGN.md, EXPERIMENTS.md and every
`docs/*.md`.  Exit status 0 when clean, 1 with one line per problem
on stderr otherwise.

Usage:
    tools/docs_check.py [--repo-root DIR]
"""

import argparse
import glob
import pathlib
import re
import sys

# [text](target) with no whitespace in target; inline code spans never
# match because the target may not contain backticks-with-spaces.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
SOURCE_TREES = ("bench", "docs", "examples", "perfbench", "src", "tests",
                "tools")
CITED_PATH_RE = re.compile(r"(?:%s)/[\w./{},*-]+?(?::\d+(?:-\d+)?)?"
                           % "|".join(SOURCE_TREES))
BRACES_RE = re.compile(r"\{([^{}]*)\}")


def scanned_documents(root):
    docs = [root / "README.md", root / "DESIGN.md",
            root / "EXPERIMENTS.md"]
    docs.extend(sorted((root / "docs").glob("*.md")))
    return [d for d in docs if d.is_file()]


def check_links(root, doc, errors):
    text = doc.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                errors.append(f"{doc.relative_to(root)}:{lineno}: "
                              f"link escapes the repository: {target}")
                continue
            if not resolved.exists():
                errors.append(f"{doc.relative_to(root)}:{lineno}: "
                              f"broken link: {target}")


def expand_braces(pattern):
    match = BRACES_RE.search(pattern)
    if not match:
        return [pattern]
    head, tail = pattern[:match.start()], pattern[match.end():]
    return [expanded
            for alternative in match.group(1).split(",")
            for expanded in expand_braces(head + alternative + tail)]


def check_cited_paths(root, doc, errors):
    text = doc.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in CODE_SPAN_RE.finditer(line):
            span = match.group(1).strip()
            if not CITED_PATH_RE.fullmatch(span):
                continue
            path = re.sub(r":[\d-]+$", "", span)
            last = path.rsplit("/", 1)[-1]
            if not any(c in last for c in ".*{"):
                continue
            for pattern in expand_braces(path):
                if not glob.glob(str(root / pattern)):
                    errors.append(f"{doc.relative_to(root)}:{lineno}: "
                                  f"cited path matches no file: "
                                  f"{pattern}")


def check_readme_index(root, errors):
    readme = root / "README.md"
    text = readme.read_text(encoding="utf-8")
    heading = "## Documentation index"
    start = text.find(heading)
    if start < 0:
        errors.append("README.md: missing a '## Documentation index' "
                      "section")
        return
    # The index section runs to the next H2 heading.
    stop = text.find("\n## ", start + len(heading))
    index = text[start:stop if stop > 0 else len(text)]
    for doc in sorted((root / "docs").glob("*.md")):
        ref = f"docs/{doc.name}"
        if ref not in index:
            errors.append(f"README.md: documentation index does not "
                          f"reference {ref}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="check markdown links, cited source paths and the "
                    "README doc index")
    parser.add_argument(
        "--repo-root",
        default=str(pathlib.Path(__file__).resolve().parent.parent))
    args = parser.parse_args(argv[1:])
    root = pathlib.Path(args.repo_root)

    errors = []
    docs = scanned_documents(root)
    for doc in docs:
        check_links(root, doc, errors)
        check_cited_paths(root, doc, errors)
    check_readme_index(root, errors)

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        print(f"docs_check: {len(docs)} documents, all intra-repo "
              f"links and cited paths resolve, README index complete")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
