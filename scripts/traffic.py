"""Print every executable line of src/projlearn that the real traffic never runs.

The real traffic is what the program's own callers do: every config under
configs/ run through the CLI and then checked with validate-config, the demo
recordings of scripts/make_demo_keypoints.py rendered and written, and two
passes of each benchmark workload in perfbench/workloads.py at seed 7, with
its set-up and run-level checks. Outputs go to a temporary directory. A
line trace (sys.settrace) limited to src/projlearn records the lines these
runs reach, from the package's import on. The executable lines are those the
compiler assigns code to. One line per unreached line,
`<module>:<line>: <source>`, in file and line order; a count goes to stderr.
A line that only tests reach shows up here. Run from the repository root:

    PYTHONPATH=src python3 scripts/traffic.py > unreached.txt
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from types import CodeType

SRC = Path("src/projlearn").resolve()
SEED = 7
PASSES = 2


def executable_lines(path: Path) -> set:
    """Line numbers that carry code in the module at path, nested code objects included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced(run) -> dict:
    """Run `run()` under a line trace of src/projlearn; returns {file: lines reached}."""
    reached = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def real_traffic():
    # Imported here, under the trace, so that module-level lines count too.
    from projlearn.cli import main
    from projlearn.ingest import write_keypoint_files
    sys.path[:0] = ["perfbench", "scripts"]
    from make_demo_keypoints import REACHES, reach_frames
    from workloads import WORKLOADS

    # validate-config prints its verdict; only the unreached lines go to stdout.
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        for path in sorted(Path("configs").glob("*.json")):
            command = json.loads(path.read_text())["experiment"]
            if main(["-q", command, str(path), "--out", str(Path(tmp) / path.stem)]) != 0:
                raise SystemExit(f"{path}: the run did not exit 0")
            if main(["-q", "validate-config", str(path)]) != 0:
                raise SystemExit(f"{path}: validate-config did not exit 0")
        for i, reach in enumerate(REACHES):
            write_keypoint_files(reach_frames(reach), Path(tmp) / "keypoints" / f"traj_{i}")
    for name, wl in sorted(WORKLOADS.items()):
        ctx = wl.setup(Path.cwd(), SEED)
        outputs = [wl.run_op(ctx, i) for i in range(PASSES * wl.pass_len)]
        _, failures = wl.finish(ctx, outputs)
        if failures or not all(o["ok"] for o in outputs):
            raise SystemExit(f"workload {name} failed: {failures}")


def main() -> int:
    reached = traced(real_traffic)
    total = unreached = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        unreached += len(missed)
        for line in missed:
            print(f"{path.stem}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines in src/projlearn not reached",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
