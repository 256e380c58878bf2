"""Compare the report corpus of the working tree with that of a git revision.

    python3 tools/corpus_diff.py REV

extracts REV's `src/` with `git archive` (through `bench_pairs.py`'s helper)
into a temporary directory, leaving the repository and its working tree as
they are. It runs the working tree's `tools/report_corpus.py` once with REV's
`src` and once with the working tree's `src` on PYTHONPATH, and compares the
two corpora file by file. It exits 0 when they are identical, 1 when they
differ (naming the first differing files) and 2 when a corpus cannot be made.
REV must be 17ec045 or later: the corpus reads the report formats and the
--mode names from `numrad.suite.REPORT_FORMATS` and `numrad.cli.MODES`.
"""

import filecmp
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, extract_src

SHOWN = 10  # differing files named at most


def differences(a: str, b: str, path: str = "") -> list[str]:
    """Relative names of the files that differ between trees a and b, or are in one only."""
    cmp = filecmp.dircmp(os.path.join(a, path), os.path.join(b, path))
    out = [os.path.join(path, name) for name in sorted(cmp.left_only + cmp.right_only
                                                         + cmp.common_funny)]
    _, mismatch, errors = filecmp.cmpfiles(os.path.join(a, path), os.path.join(b, path),
                                           cmp.common_files, shallow=False)
    out += [os.path.join(path, name) for name in sorted(mismatch + errors)]
    for sub in sorted(cmp.common_dirs):
        out += differences(a, b, os.path.join(path, sub))
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="corpus-diff-") as tmp:
        if not extract_src(argv[0], os.path.join(tmp, "rev")):
            return 2
        srcs = {"rev": os.path.join(tmp, "rev", "src"), "tree": os.path.join(ROOT, "src")}
        runs = {name: subprocess.Popen(
            [sys.executable, "-B", os.path.join(ROOT, "tools", "report_corpus.py"),
             os.path.join(tmp, f"{name}-corpus")],
            env={**os.environ, "PYTHONPATH": src}) for name, src in srcs.items()}
        failed = [name for name, proc in runs.items() if proc.wait()]
        if failed:
            print(f"report_corpus.py failed for {', '.join(failed)}", file=sys.stderr)
            return 2
        diff = differences(*(os.path.join(tmp, f"{name}-corpus") for name in srcs))
    if diff:
        print(f"{len(diff)} files differ between {argv[0]} and the working tree:",
              *diff[:SHOWN], sep="\n  ")
        return 1
    print(f"the corpora of {argv[0]} and the working tree are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
