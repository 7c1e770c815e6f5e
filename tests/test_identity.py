"""Byte identity of the CLI reports.

Every command runs in process on every bundled fixture, for both kinds and
for the document's own boundary as well as r = 1/2 (14 fixtures x 13
commands x 2 kinds x 2 r values = 728 calls), once with ``--json`` and once
with the text output.  The fixture path in the output is replaced by its
basename, and stdout, stderr and the exit code of each call are hashed into
one SHA-256 per output kind.  The ``--json`` calls are hashed once more
through one reused ``--out`` file, whose bytes stand in for stdout and must
give the same digest.  A change that must leave every report as it is
keeps both digests; a change that alters a report on purpose records the new
digest here and says why.
"""

import hashlib
from pathlib import Path

from logsurf.cli import COMMANDS, main

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "logsurf" / "fixtures"

DIGESTS = {
    "json": "04650d2ff546d7ffcc3040d467e0c1409e8ddfcb0ae95a434300f9a6c82a7d8b",
    "text": "684b472d31d2598001d7bc5e7fc38f1150ecdff9dca69e2f791002fb583ab957",
}


def _digest(capsys, output, out_file=None):
    h = hashlib.sha256()
    calls = 0
    written = b""
    for path in sorted(FIXDIR.glob("*.json")):
        for command in COMMANDS:
            for kind in ("first", "second"):
                for r in (None, "1/2"):
                    argv = [command, str(path), "--kind", kind]
                    if output == "json":
                        argv.append("--json")
                    if r is not None:
                        argv += ["--r", r]
                    if out_file is not None:
                        argv += ["--out", str(out_file)]
                    code = main(argv)
                    out = capsys.readouterr()
                    report = out.out
                    if out_file is not None:  # a failed call leaves the file as it was
                        assert report == ""
                        before, written = written, out_file.read_bytes()
                        report = written.decode("utf-8") if code == 0 else ""
                        assert code == 0 or written == before
                    for part in (path.name, command, kind, str(r), str(code), report, out.err):
                        h.update(part.replace(str(path), path.name).encode())
                        h.update(b"\0")
                    calls += 1
    assert calls == 728
    return h.hexdigest()


def test_cli_reports_are_byte_identical(capsys):
    assert _digest(capsys, "json") == DIGESTS["json"]


def test_cli_text_reports_are_byte_identical(capsys):
    assert _digest(capsys, "text") == DIGESTS["text"]


def test_cli_reports_written_through_one_out_file_are_byte_identical(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    out_file.write_bytes(b"")
    assert _digest(capsys, "json", out_file) == DIGESTS["json"]
