"""Compare the report corpus of the working tree with that of a git revision, value by value.

    python3 tools/corpus_diff.py REV

extracts REV's `src/` with `git archive` (through `bench_pairs.py`'s helper)
into a temporary directory, leaving the repository and its working tree as
they are. It runs the working tree's `tools/report_corpus.py` once with REV's
`src` and once with the working tree's `src` on PYTHONPATH, and compares the
two corpora. REV must be 17ec045 or later: the corpus reads the report
formats and the --mode names from `numrad.suite.REPORT_FORMATS` and
`numrad.cli.MODES`.

Rows are matched by key: bound rows by (file, trial, bound, mode, lambda),
chain rows by (file, trial, chain), tightness rows by (file, bound, mode) and
the lines of runs.txt by name (the words before the exit code). Per file and
column, and then per column over the whole corpus, it prints how many rows
moved and the largest move in ulps, relative and absolute. It names every
verdict that changed: a `holds` (a bound row's, a chain row's or a `bound`
run's), a violation count, a run's exit code or error text, and a row or file
that is in one corpus only. It names every other change that is not a number
moving (an `optimize` boundary, a null) apart. It exits 0 when the corpora are
identical, 1 when they differ and no verdict changed, 3 when a verdict
changed and 2 when a corpus cannot be made.
"""

import collections
import csv
import filecmp
import io
import json
import os
import struct
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, extract_src

KEYS = {"bound_rows": ("trial", "bound", "mode", "lambda"), "chain_rows": ("trial", "chain"),
        "tightness": ("bound", "mode")}  # the fields that name a report table's row
# a column ending in one of these is a verdict, not a value: runs.txt keeps
# a stdout that is not JSON (verify's violation count) and stderr as text
VERDICTS = ("holds", "violations", "exit", "stdout", "stderr")


def leaves(obj, column: str = "", row: tuple = ()) -> dict:
    """{(column, row): scalar} of parsed JSON: column is the dotted path of
    object keys, row names the list items on the way, by their KEYS fields
    (and how many earlier items share them: a lambda grid may repeat) or else
    by index."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(leaves(value, f"{column}.{key}" if column else key, row))
        return out
    if isinstance(obj, list):
        out, seen = {}, collections.Counter()
        for i, item in enumerate(obj):
            ident = i
            if isinstance(item, dict) and column in KEYS:
                fields = tuple(item.get(field) for field in KEYS[column])
                ident = fields + (seen[fields],)
                seen[fields] += 1
            out.update(leaves(item, column, row + (ident,)))
        return out
    return {(column, row): obj}


def cell(text: str):
    """A CSV cell as the JSON report holds it: empty is null, numbers and
    true/false are parsed, other text stays text."""
    if not text:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def runs(text: str) -> dict:
    """The leaves of runs.txt, whose lines read "NAME EXIT stdout | stderr"
    with NAME the words before the first all-digit one; stdout is parsed
    when it is JSON."""
    out = {}
    for line in text.splitlines():
        words = line.split(" ")
        at = next(i for i, word in enumerate(words) if word.isdigit())
        name = (" ".join(words[:at]),)
        stdout, _, stderr = " ".join(words[at + 1:]).partition(" | ")
        out[("exit", name)], out[("stderr", name)] = int(words[at]), stderr
        try:
            out.update(leaves(json.loads(stdout), "", name))
        except ValueError:
            out[("stdout", name)] = stdout
    return out


def load(path: str):
    """The leaves of one corpus file, or None for a file of no known kind (or unparsable)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        if path.endswith(".json"):
            return leaves(json.loads(text))
        if path.endswith(".csv"):
            return leaves({"bound_rows": [{key: cell(value) for key, value in row.items()}
                                          for row in csv.DictReader(io.StringIO(text))]})
        if os.path.basename(path) == "runs.txt":
            return runs(text)
    except (ValueError, StopIteration):
        pass
    return None


def ordered(x: float) -> int:
    """x's bits as an integer that orders like x, so that neighbouring doubles differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a: dict, b: dict, moves: dict, changes: dict, where: str):
    """Add to ``moves`` {column: [rows, moved, largest ulps, relative,
    absolute]} the numbers of the leaves a and b outside VERDICTS, and to
    ``changes`` a line per changed verdict (or leaf in one of a and b only)
    under "verdict", and per other change (text or null) under "other"."""
    for key in [*a, *(key for key in b if key not in a)]:  # in file order
        column, row = key
        if key not in a or key not in b:
            changes["verdict"].append(
                f"{where} {column} {row}: only in {'the tree' if key in b else 'REV'}")
            continue
        x, y = a[key], b[key]
        verdict = column.rsplit(".", 1)[-1] in VERDICTS
        if number(x) and number(y) and not verdict:
            stat = moves.setdefault(column, [0, 0, 0, 0.0, 0.0])
            stat[0] += 1
            if x != y:
                x, y = float(x), float(y)
                stat[1:] = (stat[1] + 1, max(stat[2], abs(ordered(x) - ordered(y))),
                            max(stat[3], abs(x - y) / max(abs(x), abs(y))),
                            max(stat[4], abs(x - y)))
        elif x != y or type(x) is not type(y):
            changes["verdict" if verdict else "other"].append(
                f"{where} {column} {row}: {json.dumps(x)} -> {json.dumps(y)}")


def moved(where: str, moves: dict) -> list[str]:
    """A line per column of ``moves`` with moved rows."""
    return [f"{where} {column}: {n} of {rows} rows moved, largest {ulps} ulps, "
            f"{rel:.2g} relative, {gap:.2g} absolute"
            for column, (rows, n, ulps, rel, gap) in sorted(moves.items()) if n]


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def explain(rev: str, tree: str) -> int:
    """Print what differs between the corpora in the directories rev and
    tree, value by value; the exit code."""
    total, changes, differ = {}, {"verdict": [], "other": []}, False
    for name in sorted(files(rev) | files(tree)):
        paths = os.path.join(rev, name), os.path.join(tree, name)
        if not all(map(os.path.isfile, paths)):
            changes["verdict"].append(
                f"{name}: only in {'the tree' if os.path.isfile(paths[1]) else 'REV'}")
            continue
        same = filecmp.cmp(*paths, shallow=False)
        differ |= not same
        a, b = map(load, paths)
        if a is None or b is None:
            if not same:
                changes["verdict"].append(f"{name}: differs, and cannot be parsed")
            continue
        moves, before = {}, sum(map(len, changes.values()))
        compare(a, b, moves, changes, name)
        lines = moved(name, moves)
        if lines:
            print(*lines, sep="\n")
        elif not same and sum(map(len, changes.values())) == before:
            changes["other"].append(f"{name}: differs, with equal values")
        for column, stat in moves.items():
            agg = total.setdefault(column, [0, 0, 0, 0.0, 0.0])
            agg[:] = agg[0] + stat[0], agg[1] + stat[1], *map(max, agg[2:], stat[2:])
    for line in moved("whole corpus", total):
        print(line)
    for kind, found in changes.items():
        print(f"{len(found)} {kind} changes", *found, sep="\n  ")
    return 3 if changes["verdict"] else 1 if differ else 0


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="corpus-diff-") as tmp:
        if not extract_src(argv[0], os.path.join(tmp, "rev")):
            return 2
        srcs = {"rev": os.path.join(tmp, "rev", "src"), "tree": os.path.join(ROOT, "src")}
        corpora = [os.path.join(tmp, f"{name}-corpus") for name in srcs]
        procs = {name: subprocess.Popen(
            [sys.executable, "-B", os.path.join(ROOT, "tools", "report_corpus.py"), out],
            env={**os.environ, "PYTHONPATH": src})
            for (name, src), out in zip(srcs.items(), corpora)}
        failed = [name for name, proc in procs.items() if proc.wait()]
        if failed:
            print(f"report_corpus.py failed for {', '.join(failed)}", file=sys.stderr)
            return 2
        return explain(*corpora)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
