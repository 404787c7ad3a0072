"""The artifact snapshot against its checked-in digest manifest.

``tools/artifact_snapshot.py --check`` runs the snapshot's 128 commands
in one subprocess, about 2.5 s, and compares every file's SHA-256 with
``tools/artifact_manifest.json``.  A change that alters artifacts on
purpose writes the manifest again with ``--manifest``.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_snapshot.py"
MANIFEST = ROOT / "tools" / "artifact_manifest.json"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_matches_the_manifest(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "--out", str(tmp_path / "snap"), "--check", str(MANIFEST)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"0 of {len(json.loads(MANIFEST.read_text())['files'])} paths differ" in done.stdout


def test_check_lists_changed_missing_and_new_paths(tmp_path, capsys):
    tool = _tool()
    snap = tmp_path / "snap"
    (snap / "run").mkdir(parents=True)
    for name, text in (("run/a.json", "1"), ("b.txt", "2"), ("d.txt", "3")):
        (snap / name).write_text(text)
    files = {"run/a.json": hashlib.sha256(b"1.0").hexdigest(), "b.txt": hashlib.sha256(b"2").hexdigest(), "c.txt": "0"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"toolchain": tool.toolchain(), "files": files}))
    assert tool.check(str(manifest), snap) == 1
    assert capsys.readouterr().out.splitlines() == [
        "changed: run/a.json", "missing: c.txt", "new: d.txt", f"3 of 4 paths differ from {manifest}"]


def test_check_names_a_toolchain_mismatch_instead_of_digests(tmp_path, capsys):
    tool = _tool()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"toolchain": {**tool.toolchain(), "numpy": "0.0"}, "files": {"gone.json": "0"}}))
    assert tool.check(str(manifest), tmp_path) == 1
    out = capsys.readouterr().out
    assert out.startswith("toolchain mismatch: numpy 0.0 in the manifest") and "gone.json" not in out
