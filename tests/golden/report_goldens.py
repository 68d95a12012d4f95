#!/usr/bin/env python3
"""The rader CLI's output contract, frozen as golden files.

Runs twenty `rader` reports, normalizes them and either writes them as the
goldens next to this script or compares them against those goldens:

    report_goldens.py RADER --write            # regenerate tests/golden/*.golden
    report_goldens.py RADER --check OUT_DIR    # regenerate into OUT_DIR, diff

Each golden records the command, its exit code, its stdout and its stderr.
The normalizer drops only what varies between two runs of one binary:
  - every JSON "addr" member, and the "at 0x..." address in text lines;
  - the "checked in ...s" line;
  - metrics.phase_seconds and every histogram whose name ends in "_nanos";
  - shadow.pages_touched, shadow.pages_cow and shadow.pages_live;
  - the absolute source path, which becomes <src>.
Every other byte is kept: JSON scalars keep their exact text and members
their order, and a line that is not compact JSON is kept as it is, so it
cannot match a normalized golden.

Regenerating a golden is a deliberate act: say in CHANGES.md which golden
changed and why.
"""

import difflib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(HERE))

DROPPED_METRICS = {"shadow.pages_touched", "shadow.pages_cow",
                   "shadow.pages_live"}


def reports():
    """(golden name, rader arguments) for every frozen report."""
    out = []
    for prog in ("fig1", "fib", "knapsack", "pbfs"):
        for strategy in ("rerun", "prefix"):
            for isolate in ("none", "procs"):
                out.append((f"exhaustive-{prog}-{strategy}-{isolate}",
                            [f"--program={prog}", "--check=exhaustive",
                             "--scale=0.002", "--format=json",
                             f"--sweep-strategy={strategy}",
                             f"--isolate={isolate}"]))
    explain = ["--program=fig1", "--check=sp+", "--spec=triple:0,1,2",
               "--explain"]
    out.append(("explain-fig1-text", explain))
    out.append(("explain-fig1-json", explain + ["--format=json"]))
    out.append(("repro-view_read_race",
                [f"--repro={SRC}/tests/fuzz/corpus/view_read_race.rprog",
                 "--format=json"]))
    out.append(("list-metrics", ["--list-metrics"]))
    return out


# --- a JSON reader that keeps every scalar's exact text ---------------------

TOKEN = re.compile(r'\s*("(?:[^"\\]|\\.)*"|[-+0-9.eE]+|true|false|null|[{}\[\],:])')


class Reader:
    def __init__(self, text):
        self.tokens = TOKEN.findall(text)
        if "".join(self.tokens) != text:
            raise ValueError("unparseable JSON")
        self.i = 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def value(self):
        tok = self.next()
        if tok == "{":
            members = []
            if self.tokens[self.i] == "}":
                self.i += 1
                return members
            while True:
                key = self.next()
                if self.next() != ":":
                    raise ValueError("expected ':'")
                members.append((key, self.value()))
                sep = self.next()
                if sep == "}":
                    return members
                if sep != ",":
                    raise ValueError("expected ',' or '}'")
        if tok == "[":
            items = []
            if self.tokens[self.i] == "]":
                self.i += 1
                return ("array", items)
            while True:
                items.append(self.value())
                sep = self.next()
                if sep == "]":
                    return ("array", items)
                if sep != ",":
                    raise ValueError("expected ',' or ']'")
        return tok


def pretty(v, indent=""):
    """One member or element per line, so a golden diff stays local."""
    inner = indent + " "
    if isinstance(v, list):
        if not v:
            return "{}"
        body = ",\n".join(inner + k + ": " + pretty(x, inner) for k, x in v)
        return "{\n" + body + "\n" + indent + "}"
    if isinstance(v, tuple):
        if not v[1]:
            return "[]"
        body = ",\n".join(inner + pretty(x, inner) for x in v[1])
        return "[\n" + body + "\n" + indent + "]"
    return v


def drop_unstable(v, path=()):
    if isinstance(v, tuple):
        return ("array", [drop_unstable(x, path) for x in v[1]])
    if not isinstance(v, list):
        return v
    kept = []
    for key, x in v:
        name = key[1:-1]
        if name == "addr":
            continue
        if path == ("metrics",) and name == "phase_seconds":
            continue
        if len(path) == 2 and path[0] == "metrics":
            if name in DROPPED_METRICS:
                continue
            if path[1] == "histograms" and name.endswith("_nanos"):
                continue
        kept.append((key, drop_unstable(x, path + (name,))))
    return kept


def normalize_line(line):
    if line.startswith("{") and line.endswith("}"):
        try:
            reader = Reader(line)
            tree = reader.value()
            if reader.i == len(reader.tokens):
                return pretty(drop_unstable(tree))
        except (ValueError, IndexError):
            pass
        return line
    return re.sub(r"\bat 0x[0-9a-f]+", "at 0x<addr>", line)


def normalize(text):
    lines = [normalize_line(l) for l in text.split("\n")
             if not l.startswith("checked in ")]
    return "\n".join(lines).replace(SRC, "<src>")


def render(rader, args):
    proc = subprocess.run([rader] + args, capture_output=True, text=True,
                          timeout=120)
    cmd = " ".join(["rader"] + args).replace(SRC, "<src>")
    return (f"$ {cmd}\nexit: {proc.returncode}\n"
            f"--- stdout\n{normalize(proc.stdout)}\n"
            f"--- stderr\n{normalize(proc.stderr)}\n")


def main(argv):
    if len(argv) < 3 or argv[2] not in ("--write", "--check") or \
            (argv[2] == "--check") != (len(argv) == 4):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rader = argv[1]
    out_dir = HERE if argv[2] == "--write" else argv[3]
    os.makedirs(out_dir, exist_ok=True)
    failed = []
    for name, args in reports():
        got = render(rader, args)
        with open(os.path.join(out_dir, name + ".golden"), "w") as f:
            f.write(got)
        if argv[2] == "--write":
            continue
        with open(os.path.join(HERE, name + ".golden")) as f:
            want = f.read()
        if got != want:
            failed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True),
                f"golden/{name}.golden", f"{out_dir}/{name}.golden"))
    if failed:
        print(f"{len(failed)} golden report(s) differ: {' '.join(failed)}")
        return 1
    print(f"{len(reports())} golden report(s) "
          f"{'written' if argv[2] == '--write' else 'match'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
