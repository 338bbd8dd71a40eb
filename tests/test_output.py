import json
from dataclasses import replace

import numpy as np
import pytest

from switchpass import cli, routing, training
from switchpass import data as dat
from switchpass import evaluation as ev
from switchpass.output import write_atomic, write_csv

from test_cli import TINY_CONFIG

BAD = object()  # a value no writer can format


def _metrics(out, bad, monkeypatch):
    row = {"epoch": 1, "l_recon": 0.1, "l_switch": 0.2, "l_lwd": 0.3, "l_comp": 0.4,
           "sparsity": 0.5, "switch_mae": 0.6}
    last = {"epoch": 2} if bad else dict(row, epoch=2)  # a row missing its keys
    training.write_metrics_csv([row, last], out / "metrics.csv")


def _routing(out, bad, monkeypatch):
    report = ev.RoutingReport(
        tau=BAD if bad else 0.5, n=2, light_fraction={"easy": 0.5},
        counts={"easy": {routing.LIGHT: 1, routing.FULL: 1}},
        expected_macs_mixed=10.5, macs_full_only=12, macs_light_only=9)
    ev.write_routing_csv(report, out / "routing.csv")


def _parity(out, bad, monkeypatch):
    ev.write_parity_csv({"overall": ev.ParityReport(0.1, 0.2, BAD if bad else 0.3)},
                        out / "parity.csv")


def _sparsity(out, bad, monkeypatch):
    ev.write_sparsity_csv([ev.SparsityCurvePoint(1e-3, 0.5, BAD if bad else 0.01)],
                          out / "sparsity.csv")


def _calibration(out, bad, monkeypatch):
    point = ev.CalibrationPoint(epoch=1, mae=0.1, pearson_r=BAD if bad else 0.9,
                                degenerate=False, predicted=np.array([0.1, 0.2]),
                                actual=np.array([0.3, 0.4]))
    ev.write_calibration_csv([point], out / "calibration.csv", out / "calibration_scatter.csv")


def _ablation(out, bad, monkeypatch):
    ev.write_ablation_csv([ev.AblationRow(1, 0.9, 0.1, BAD if bad else 0.2)],
                          out / "ablation.csv")


def _probe(out, bad, monkeypatch):
    ev.write_probe_csv(ev.DownstreamReport(0.9, 0.8, BAD if bad else 0.9), out / "probe.csv")


def _wav(out, bad, monkeypatch):
    dat.write_wav(out / "frames.wav", [BAD] if bad else np.full(64, 0.25))


def _config(out):
    path = out.parent / "config.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, output_dir=str(out))))
    return str(path)


def _train_summary(out, bad, monkeypatch):
    if bad:
        # Only summary.json carries l_total: metrics.csv has no such column
        # and the checkpoints hold copies of the rows.
        real = training.train

        def poisoned(cfg, dataset=None):
            result = real(cfg, dataset)
            result.metrics[-1]["l_total"] = BAD
            return result

        monkeypatch.setattr(training, "train", poisoned)
    assert cli.main(["train", _config(out)]) == 0


def _eval_summary(out, bad, monkeypatch):
    config = _config(out)
    ckpt = str(out / "checkpoint_final.json")
    if bad:
        # The checkpoint epoch is read by the summary only.
        real = training.load_checkpoint
        monkeypatch.setattr(training, "load_checkpoint", lambda p: replace(real(p), epoch=BAD))
    else:
        assert cli.main(["train", config]) == 0
    assert cli.main(["eval", config, ckpt, "--tau", "0.5"]) == 0


# Each case writes good values, or with bad=True a value it cannot format.
CASES = {
    "metrics_csv": _metrics, "routing_csv": _routing, "parity_csv": _parity,
    "sparsity_csv": _sparsity, "calibration_csv": _calibration, "ablation_csv": _ablation,
    "probe_csv": _probe, "wav": _wav, "train_summary": _train_summary,
    "eval_summary": _eval_summary,
}


@pytest.mark.parametrize("write", CASES.values(), ids=CASES.keys())
def test_failed_write_keeps_earlier_files(tmp_path, monkeypatch, write):
    out = tmp_path / "out"
    out.mkdir()
    write(out, False, monkeypatch)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises((TypeError, KeyError)):
        write(out, True, monkeypatch)
    # Same names (no temporary file left) and same bytes.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("fault", ["unencodable text", "rename onto a directory"])
def test_write_atomic_removes_temp_file_on_failure(tmp_path, fault):
    if fault == "unencodable text":
        path, data = tmp_path / "a.txt", "old\n\ud800"
        path.write_text("old\n")
    else:
        path, data = tmp_path / "a.txt", "new\n"
        path.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises((UnicodeEncodeError, OSError)):
        write_atomic(path, data)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if path.is_file():
        assert path.read_text() == "old\n"


def test_write_csv_cells(tmp_path):
    write_csv(tmp_path / "c.csv", ("s", "i", "n", "f", "g"),
              [("x", 3, np.int64(4), 0.1, np.float64(1e-20)), ("y", 0, 0, 2.0, 1)])
    assert (tmp_path / "c.csv").read_text() == "s,i,n,f,g\nx,3,4,0.1,1e-20\ny,0,0,2.0,1\n"
