"""Print a sha256 for every output file of every shipped config.

Each config under configs/ runs through its experiment's runner in this one
process, and its outputs are written as the CLI writes them: report.json,
trials.csv, one CSV per table the result carries (sweep.csv for a sweep) and
one CSV per trajectory. One line per
file, `<sha256>  <config>/<file>`, sorted. Two checkouts whose outputs are
byte-identical print the same lines, so a diff of this script's output
before and after a change checks that claim. Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from projlearn.cli import write_outputs
from projlearn.experiments import RUNNERS


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(Path("configs").glob("*.json")):
            cfg = json.loads(path.read_text())
            out = Path(tmp) / path.stem
            write_outputs(RUNNERS[cfg["experiment"]](cfg), out, False)
            for f in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {path.stem}/{f.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
