import json
import re

import numpy as np
import pytest

from switchpass import config
from switchpass import data as dat
from switchpass import evaluation as ev
from switchpass import routing, training
from switchpass.autograd import MacCounter, Tensor
from switchpass.errors import ConfigError, ContractError
from switchpass.model import SwitchedAutoencoder

from test_cli import TINY_CONFIG
from test_training import tiny_config


@pytest.fixture(scope="module")
def tiny_run():
    cfg = tiny_config(epochs=8)
    return cfg, training.train(cfg)


class TestPearson:
    def test_perfect_alignment(self):
        x = np.array([0.1, 0.4, 0.9, 1.3])
        r, degenerate = ev.pearson(x, 2.0 * x + 1.0)
        assert abs(r - 1.0) < 1e-12
        assert not degenerate

    def test_perfect_anticorrelation(self):
        x = np.array([0.1, 0.4, 0.9])
        r, _ = ev.pearson(x, -x)
        assert abs(r + 1.0) < 1e-12

    def test_constant_predictor_flagged_degenerate(self):
        r, degenerate = ev.pearson(np.full(5, 3.0), np.arange(5.0))
        assert r == 0.0
        assert degenerate


class TestRoutingStats:
    def test_tau_zero_all_full(self, tiny_run):
        cfg, result = tiny_run
        report = ev.routing_stats(result.model, result.dataset.test, 0.0)
        assert all(frac == 0.0 for frac in report.light_fraction.values())
        assert report.expected_macs_mixed == report.macs_full_only

    def test_huge_tau_all_light(self, tiny_run):
        cfg, result = tiny_run
        report = ev.routing_stats(result.model, result.dataset.test, 1e18)
        assert all(frac == 1.0 for frac in report.light_fraction.values())
        assert report.expected_macs_mixed == report.macs_light_only

    def test_counts_match_decision_replay(self, tiny_run):
        cfg, result = tiny_run
        model, frames = result.model, result.dataset.test
        tau = 0.4
        report = ev.routing_stats(model, frames, tau)
        preds = model.switch_predictions(Tensor(dat.frames_to_matrix(frames)))
        replay: dict = {}
        for frame, p in zip(frames, preds):
            slot = replay.setdefault(str(frame.difficulty), {"light": 0, "full": 0})
            slot[routing.LIGHT if p < tau else routing.FULL] += 1
        assert report.counts == replay
        assert sum(sum(s.values()) for s in report.counts.values()) == report.n

    def test_expected_macs_equal_per_sample_counters(self, tiny_run):
        cfg, result = tiny_run
        model, frames = result.model, result.dataset.test
        tau = 0.4
        report = ev.routing_stats(model, frames, tau)
        total = 0
        for frame in frames:
            x = Tensor(frame.samples[None, :])
            with MacCounter() as counter:
                model.mixed_output(x, tau)
            total += counter.total
        assert report.expected_macs_mixed == total / len(frames)

    def test_empty_dataset_rejected(self, tiny_run):
        cfg, result = tiny_run
        with pytest.raises(ContractError):
            ev.routing_stats(result.model, [], 0.5)


class TestQualityParity:
    def test_tau_zero_mixed_equals_full_bitwise(self, tiny_run):
        cfg, result = tiny_run
        report = ev.quality_parity(result.model, result.dataset.test, 0.0)
        assert report.mse_mixed == report.mse_full

    def test_huge_tau_mixed_equals_light_bitwise(self, tiny_run):
        cfg, result = tiny_run
        report = ev.quality_parity(result.model, result.dataset.test, 1e18)
        assert report.mse_mixed == report.mse_light


class TestSparsitySweep:
    def test_zero_beta_keeps_init_sparsity(self):
        cfg = tiny_config(epochs=4)
        points = ev.sparsity_sweep(cfg, [0.0])
        assert points[0].sparsity == 0.0

    def test_rows_sorted_by_beta(self):
        cfg = tiny_config(epochs=2)
        points = ev.sparsity_sweep(cfg, [0.01, 0.0001])
        assert [p.beta for p in points] == [0.0001, 0.01]

    def test_duplicate_betas_rejected(self):
        with pytest.raises(ContractError):
            ev.sparsity_sweep(tiny_config(epochs=1), [0.1, 0.1])

    def test_jobs_below_one_rejected_before_the_dataset_is_built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "build_dataset", lambda *a: calls.append(a))
        with pytest.raises(ContractError, match="jobs must be >= 1, got 0"):
            ev.sparsity_sweep(tiny_config(epochs=1), [0.001], jobs=0)
        assert calls == []


class TestSweepValuesRejectedBeforeAnyData:
    """Each run's config is built, and so checked, before the dataset exists."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "build_dataset", lambda *a: calls.append("data"))
        monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append("train"))
        return calls

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_beta_the_config_rejects_trains_no_run(self, calls, bad):
        with pytest.raises(ConfigError, match=f"beta must be finite and >= 0, got 1.0, {bad}"):
            ev.sparsity_sweep(tiny_config(epochs=1), [0.001, bad])
        assert calls == []

    @pytest.mark.parametrize("sweep, field, values", [
        (ev.sparsity_sweep, "beta", [0.1, 0.1]),
        (ev.placement_ablation, "placement", [1, 1]),
    ], ids=["sparsity_sweep", "placement_ablation"])
    def test_duplicate_values_are_named(self, calls, sweep, field, values):
        with pytest.raises(ContractError,
                           match=re.escape(f"{field} values must be distinct, got {values}")):
            sweep(tiny_config(epochs=1), values)
        assert calls == []

    @pytest.mark.parametrize("sweep", [ev.sparsity_sweep, ev.placement_ablation])
    def test_no_values_no_runs(self, calls, sweep):
        assert sweep(tiny_config(epochs=1), []) == []
        assert calls == []

    @pytest.mark.parametrize("sweep, values", [
        (ev.sparsity_sweep, [0.001]),
        (ev.placement_ablation, [1]),
    ], ids=["sparsity_sweep", "placement_ablation"])
    def test_frame_len_mismatch_builds_no_data(self, calls, sweep, values):
        # data assigned after construction is not checked against dims by
        # the config; the sweep checks it before building the corpus.
        cfg = tiny_config(epochs=1)
        cfg.data = training.DataConfig(spec=dat.SignalSpec(frame_len=32))
        with pytest.raises(ConfigError, match="dims must start and end at data.frame_len"):
            sweep(cfg, values)
        assert calls == []


class TestCalibrationProgress:
    def test_needs_two_checkpoints(self, tiny_run):
        cfg, result = tiny_run
        with pytest.raises(ContractError):
            ev.calibration_progress(cfg, result.checkpoints[:1], result.dataset.calibrate)

    def test_reports_per_checkpoint(self, tiny_run):
        cfg, result = tiny_run
        points = ev.calibration_progress(cfg, result.checkpoints, result.dataset.calibrate)
        assert [p.epoch for p in points] == [c.epoch for c in result.checkpoints]
        for p in points:
            assert p.mae >= 0.0
            assert -1.0 <= p.pearson_r <= 1.0
            assert p.predicted.shape == p.actual.shape

    def test_perfect_predictor_injection(self):
        actual = np.random.default_rng(0).uniform(0, 2, 50)
        r, degenerate = ev.pearson(actual, actual)
        mae = float(np.mean(np.abs(actual - actual)))
        assert mae == 0.0
        assert abs(r - 1.0) < 1e-12
        assert not degenerate


class TestPlacementAblation:
    def test_single_placement_single_row(self):
        cfg = tiny_config(epochs=2)
        rows = ev.placement_ablation(cfg, [1])
        assert len(rows) == 1
        assert rows[0].placement == 1

    def test_out_of_range_placement_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigError, match="placement 9"):
            ev.placement_ablation(tiny_config(epochs=1), [1, 9])
        assert calls == []

    @pytest.mark.parametrize("placement", [0, 3])
    def test_model_and_ablation_reject_with_one_message(self, placement):
        cfg = tiny_config(epochs=1)  # dims [16, 8, 12, 16]: placements 1 and 2 fit
        dsl = routing.SwitchConfig(placement=placement, rho=0.5)
        with pytest.raises(ConfigError, match=f"placement {placement}") as from_model:
            SwitchedAutoencoder(cfg.dims, cfg.activations, dsl, cfg.seed)
        with pytest.raises(ConfigError) as from_ablation:
            ev.placement_ablation(cfg, [placement])
        assert str(from_ablation.value) == str(from_model.value)

    def test_prefix_mac_share_strictly_increasing(self):
        cfg = tiny_config(epochs=1)
        cfg.dims = [16, 12, 10, 8, 16]
        cfg.activations = ["tanh", "tanh", "tanh", "none"]
        rows = ev.placement_ablation(cfg, [1, 2, 3])
        shares = [r.prefix_mac_share for r in rows]
        assert shares == sorted(shares)
        assert len(set(shares)) == 3


class TestProbe:
    def test_linearly_separable_injection_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(-2.0, 0.3, (60, 8))
        x1 = rng.normal(2.0, 0.3, (60, 8))
        x = np.vstack([x0, x1])
        y = np.array([0.0] * 60 + [1.0] * 60)
        w, b = ev.fit_probe(x, y)
        assert ev.probe_accuracy(w, b, x, y) == 1.0

    def test_probe_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (40, 6))
        y = (x[:, 0] > 0).astype(float)
        w1, b1 = ev.fit_probe(x, y)
        w2, b2 = ev.fit_probe(x, y)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_downstream_report_bounds(self, tiny_run):
        cfg, result = tiny_run
        report = ev.downstream_probe(result.model, result.dataset, 0.4)
        for acc in (report.acc_full, report.acc_light, report.acc_mixed):
            assert 0.0 <= acc <= 1.0


class TestOneInferencePerFrameSet:
    """Parity and the probe read the full, light and mixed outputs from one
    model.passes per frame set: prefix, switch, light and suffix once per row."""

    @staticmethod
    def per_row(model):
        return model.macs_prefix() + model.macs_switch() + model.macs_light() \
            + model.macs_suffix()

    def test_quality_parity_macs(self, tiny_run):
        cfg, result = tiny_run
        frames = result.dataset.test
        with MacCounter() as counter:
            ev.quality_parity(result.model, frames, 0.4)
        assert counter.total == len(frames) * self.per_row(result.model)

    def test_downstream_probe_macs(self, tiny_run):
        # Plus one prefix pass per source and row to re-encode its output.
        cfg, result = tiny_run
        model, ds = result.model, result.dataset
        with MacCounter() as counter:
            ev.downstream_probe(model, ds, 0.4)
        rows = len(ds.train) + len(ds.test)
        assert counter.total == rows * (self.per_row(model) + 3 * model.macs_prefix())

    def test_eval_reports_cost_the_probe_alone(self, tiny_run):
        # Routing and the three parity scopes read the probe's test-split pass.
        cfg, result = tiny_run
        model, ds, tau = result.model, result.dataset, 0.4
        with MacCounter() as counter:
            report, parity, probe = ev.eval_reports(model, ds, tau)
        rows = len(ds.train) + len(ds.test)
        assert counter.total == rows * (self.per_row(model) + 3 * model.macs_prefix())
        assert report == ev.routing_stats(model, ds.test, tau)
        assert probe == ev.downstream_probe(model, ds, tau)
        scopes = {"overall": ds.test}
        for tag in (dat.EASY, dat.HARD):
            scopes[tag] = [f for f in ds.test if f.difficulty == tag]
        assert all(scopes.values())
        assert parity == {scope: ev.quality_parity(model, frames, tau)
                          for scope, frames in scopes.items()}


@pytest.fixture(scope="module")
def diverged_switch():
    # TINY_CONFIG trained for 2 epochs, then its switch weights set to
    # alternating +-1e300: every parameter is finite, but 25 of the 48 test
    # frames' switch predictions overflow to +inf.
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["train"]["epochs"] = 2
    result = training.train(config.parse_config(doc).train_cfg)
    for layer in result.model.switch.net.layers:
        w = layer.weights.data
        layer.weights.data = np.resize([1e300, -1e300], w.size).reshape(w.shape)
    return result.model, result.dataset


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("name, call, split", [pytest.param(*case, id=case[0]) for case in [
    ("routing_stats", lambda model, ds: ev.routing_stats(model, ds.test, 0.5), "the frames"),
    ("quality_parity", lambda model, ds: ev.quality_parity(model, ds.test, 0.5), "the frames"),
    ("downstream_probe", lambda model, ds: ev.downstream_probe(model, ds, 0.5),
     "the test split"),
    ("eval_reports", lambda model, ds: ev.eval_reports(model, ds, 0.5), "the test split"),
]])
def test_diverged_switch_is_an_error(diverged_switch, name, call, split):
    # A diverged switch is not an ordinary run: every library report that
    # reads the switch's predictions names the count that are not finite.
    model, ds = diverged_switch
    with pytest.raises(ContractError, match=f"^{name}: 25 of 48 switch predictions on "
                                            f"{split} are not finite$"):
        call(model, ds)


class TestReconstructionLoss:
    def test_matches_manual(self, tiny_run):
        cfg, result = tiny_run
        frames = result.dataset.test
        x = dat.frames_to_matrix(frames)
        out = result.model.full_output(Tensor(x)).data
        assert ev.reconstruction_loss(result.model, frames) == float(np.mean((out - x) ** 2))


class TestCsvWriters:
    def test_all_writers_produce_headers(self, tiny_run, tmp_path):
        cfg, result = tiny_run
        model, ds = result.model, result.dataset
        report = ev.routing_stats(model, ds.test, 0.4)
        ev.write_routing_csv(report, tmp_path / "routing.csv")
        assert (tmp_path / "routing.csv").read_text().startswith("difficulty,n,light,full")

        parity = {"overall": ev.quality_parity(model, ds.test, 0.4)}
        ev.write_parity_csv(parity, tmp_path / "parity.csv")
        assert (tmp_path / "parity.csv").read_text().startswith("scope,mse_full")

        points = ev.calibration_progress(cfg, result.checkpoints, ds.calibrate)
        ev.write_calibration_csv(points, tmp_path / "calibration.csv",
                                 tmp_path / "calibration_scatter.csv")
        assert (tmp_path / "calibration.csv").read_text().startswith("epoch,switch_mae")
        scatter = (tmp_path / "calibration_scatter.csv").read_text().splitlines()
        assert scatter[0] == "epoch,predicted,actual"
        assert len(scatter) == 1 + len(points) * len(points[0].predicted)

        sweep = [ev.SparsityCurvePoint(beta=0.1, sparsity=0.5, l_recon=0.01)]
        ev.write_sparsity_csv(sweep, tmp_path / "sparsity.csv")
        assert (tmp_path / "sparsity.csv").read_text().splitlines()[0] == "beta,sparsity,l_recon"

        rows = [ev.AblationRow(placement=1, pearson_r=0.9, mae=0.1, prefix_mac_share=0.2)]
        ev.write_ablation_csv(rows, tmp_path / "ablation.csv")
        assert "placement,pearson_r" in (tmp_path / "ablation.csv").read_text()

        probe = ev.DownstreamReport(acc_full=0.9, acc_light=0.8, acc_mixed=0.9)
        ev.write_probe_csv(probe, tmp_path / "probe.csv")
        assert (tmp_path / "probe.csv").read_text().splitlines()[1] == "full,0.9"
