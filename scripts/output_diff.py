"""Compare the outputs of every shipped config at HEAD and in the working tree, value by value.

HEAD is extracted with `git archive` into a temporary directory, as
scripts/bench_pairs.py does. Each tree writes the outputs of every config
under configs/ as scripts/output_digests.py does, in a process of its own
with that tree's src/ on the path. Then every output file is compared. A
file is `identical` when its bytes are; otherwise every number in it is
replaced by a placeholder, and when the two texts still differ the file is
flagged `NON-NUMERIC DIFFERENCE`. Else the line gives the largest absolute
change over the file's numbers, in order. A file that only one tree writes
is flagged too. One line per file, `<config>/<file>: <verdict>`, sorted, and
a count on stderr. Run from the repository root:

    python3 scripts/output_diff.py > diff.txt
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A number standing alone: not part of a name such as e_w2 or a hex digest.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    r"|(?<![\w.])-?(?:NaN|nan|Infinity|inf)(?![\w.])")


def write_all(out: Path) -> None:
    """Write the outputs of every config under configs/ (the current directory's) into out."""
    from projlearn.cli import write_outputs
    from projlearn.experiments import RUNNERS

    for path in sorted(Path("configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        write_outputs(RUNNERS[cfg["experiment"]](cfg), out / path.stem, False)


def run_tree(tree: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--write", str(out)],
                   cwd=tree, env=env, check=True)


def verdict(old: bytes, new: bytes) -> str:
    if old == new:
        return "identical"
    a, b = old.decode(), new.decode()
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "NON-NUMERIC DIFFERENCE"
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y)) if math.isfinite(x - y) else math.inf
    return f"max abs change {worst:.3g}"


def main(argv) -> int:
    if argv[:1] == ["--write"]:
        write_all(Path(argv[1]))
        return 0
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        run_tree(parent, tmp / "out_parent")
        run_tree(ROOT, tmp / "out_change")
        files = {p.relative_to(tmp / side).as_posix()
                 for side in ("out_parent", "out_change")
                 for p in (tmp / side).rglob("*") if p.is_file()}
        changed = 0
        for name in sorted(files):
            old, new = tmp / "out_parent" / name, tmp / "out_change" / name
            if not (old.exists() and new.exists()):
                line = "only in " + ("parent" if old.exists() else "working tree")
            else:
                line = verdict(old.read_bytes(), new.read_bytes())
            changed += line != "identical"
            print(f"{name}: {line}")
    print(f"{changed} of {len(files)} output files differ", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
