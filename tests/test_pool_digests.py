"""Output digests of every benchmark pool instance.

Each of the 776 instances of bench/workloads.py runs through cli.main in
process, plain and with --json (with -o where the instance writes a
machine); the solve-prefix and dsum-path instances also run with --trace.
The exit code, stdout, the -o bytes and stderr, less its elapsed_ms line,
hash to one digest per instance, pinned in pool_digests.json.  A change
that alters any output byte of any instance fails here and names the
instances.  After a deliberate output change, re-pin with

    python tests/test_pool_digests.py --write

and name the changed instances where the change is described.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import load_bench_workloads
from wsynth import cli

PINNED = Path(__file__).resolve().parent / "pool_digests.json"
TRACED = ("solve-prefix", "dsum-path")


def _run(argv, workdir, out):
    """(exit code, stdout, -o bytes, stderr less elapsed_ms) of one call,
    with the work directory's path replaced so digests do not depend on it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = ""
    if out is not None and out.exists():
        written = out.read_text(encoding="utf-8")
        out.unlink()
    err = "".join(line for line in stderr.getvalue().splitlines(keepends=True)
                  if not line.startswith("elapsed_ms: "))
    here = str(workdir)
    return [code] + [text.replace(here, "<dir>") for text in (stdout.getvalue(), written, err)]


def pool_digests(monkeypatch, workdir):
    """instance id -> SHA-256 of its calls' outputs, in pool order."""
    workloads = load_bench_workloads(monkeypatch)
    digests = {}
    for workload, families in workloads.WORKLOADS.items():
        for family in families:
            for index in range(family.pool):
                inst = workloads.pool_instance(workload, family, index)
                for name, text in inst.files.items():
                    (workdir / name).write_text(text, encoding="utf-8")
                argv = [str(workdir / a) if a in inst.files else a for a in inst.argv]
                out = workdir / "out.mealy" if inst.machine_out else None
                calls = [(argv, None), (argv + (["-o", str(out)] if out else []) + ["--json"], out)]
                if inst.argv[0] in TRACED:
                    calls.append((argv + ["--trace"], None))
                results = [_run(call, workdir, o) for call, o in calls]
                digests[inst.iid] = hashlib.sha256(
                    json.dumps(results).encode("utf-8")).hexdigest()
    return digests


def test_pool_outputs_match_the_pinned_digests(monkeypatch, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    digests = pool_digests(monkeypatch, tmp_path)
    assert len(digests) == 776
    changed = sorted(set(pinned) ^ set(digests)) + [
        iid for iid in digests if iid in pinned and pinned[iid] != digests[iid]]
    assert not changed, "output changed on %d instances: %s" % (len(changed), changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pool_digests.py --write")
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        found = pool_digests(patch, Path(tmp))
    PINNED.write_text(json.dumps(found, indent=0) + "\n", encoding="utf-8")
    print("pinned %d digests in %s" % (len(found), PINNED))
