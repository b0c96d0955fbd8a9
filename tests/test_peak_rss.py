"""``scripts/peak_rss.py``: alternating fresh-process peaks of one ``lamp`` command."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))  # peak_rss imports bench_pairs's exports
_spec = importlib.util.spec_from_file_location("peak_rss", ROOT / "scripts" / "peak_rss.py")
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)


def test_sides_alternate_and_medians_are_printed(monkeypatch, capsys):
    monkeypatch.setattr(peak_rss, "_export", lambda rev, dest: None)
    monkeypatch.setattr(peak_rss, "_export_worktree", lambda dest: None)
    order, peaks = [], {"base": iter([300.0, 100.0, 200.0]), "head": iter([90.0, 10.0, 50.0])}

    def fake_measure(tree, command, out_dir):
        assert command == ["train", "--dataset", "d.lampds"]
        order.append(tree.name)
        return next(peaks[tree.name])

    monkeypatch.setattr(peak_rss, "_measure", fake_measure)
    assert peak_rss.main(["--rev", "r", "--", "train", "--dataset", "d.lampds"]) == 0
    assert order == ["base", "head", "head", "base", "base", "head"]
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["r (base): 200.0 MB", "working tree (head): 50.0 MB"]


def test_measures_one_fresh_lamp_process(tmp_path):
    # The caller's own 200 MB peak must not show in the command's.
    np.ones(200 * 2**20 // 8)
    out = tmp_path / "out"
    peak = peak_rss._measure(ROOT, ["generate", "--height", "8", "--width", "8",
                                    "--snapshots", "4"], out)
    assert (out / "dataset.lampds").is_file()
    assert 10.0 < peak < 150.0  # an interpreter with numpy loaded, in MB


def test_a_failed_run_exits_with_its_stderr(tmp_path):
    with pytest.raises(SystemExit, match=r"exit 3\):\nerror: .*No such file"):
        peak_rss._measure(ROOT, ["train", "--dataset", str(tmp_path / "missing.lampds"),
                                 "--patch-size", "4", "--latent-dim", "2"], tmp_path / "out")
