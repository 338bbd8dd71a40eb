import json

import numpy as np
import pytest

from switchpass import cli, routing, training
from switchpass import data as dat
from switchpass.autograd import Tensor
from switchpass.config import _SCHEMA, CLI_DATA_SEED, DEFAULTS, load_run_config, parse_config
from switchpass.data import MAX_SIZE
from switchpass.errors import ConfigError
from switchpass.training import DataConfig, TrainConfig

TINY_CONFIG = {
    "arch": {
        "dims": [16, 8, 12, 16],
        "activations": ["tanh", "tanh", "none"],
        "placement": 1,
        "rho": 0.5,
    },
    "dsl": {"alpha": 1.0, "beta": 0.001},
    "data": {
        "frame_len": 16,
        "seed": 9,
        "n_easy": 120,
        "n_hard": 120,
        "ratios": [0.5, 0.3, 0.2],
    },
    "train": {"epochs": 4, "batch_size": 16, "lr": 0.001, "seed": 5, "checkpoint_every": 2},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, path


def redirect_output(config, tmp_path):
    """Points the config's output_dir at a directory that does not exist."""
    doc = json.loads(config.read_text())
    doc["output_dir"] = str(tmp_path / "never")
    config.write_text(json.dumps(doc))
    return tmp_path / "never"


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["train", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["train", str(path)]) == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"output_dir": "\xff"}')
    assert cli.main(["train", str(path)]) == 2
    assert "error: config" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"archs": {}}))
    assert cli.main(["train", str(path)]) == 2
    assert "archs" in capsys.readouterr().err


def test_tau_and_fraction_mutually_exclusive_in_config(tmp_path):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["dsl"]["tau"] = 0.5
    cfg["dsl"]["target_light_fraction"] = 0.6
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", str(path)]) == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: routing.SwitchConfig(alpha=NAN),
    lambda: routing.SwitchConfig(beta=INF),
    lambda: TrainConfig(lr=NAN),
    lambda: TrainConfig(lr=INF),
    lambda: TrainConfig(checkpoint_every=-5),
    lambda: dat.split([], (NAN, 0.5, 0.5), 0),
], ids=["alpha-nan", "beta-inf", "lr-nan", "lr-inf",
        "checkpoint_every-negative", "ratios-nan"])
def test_non_finite_or_negative_config_number_rejected(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("section, key, value", [
    ("dsl", "beta", NAN),
    ("train", "epochs", INF),
], ids=["beta-nan", "epochs-inf"])
def test_train_with_non_finite_config_number_exits_2(workdir, capsys, section, key, value):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("data", "frame_len", 32, "frame_len 32"),
    ("arch", "dims", [16, 8, 12, 32], "dims[-1] 32"),
    ("arch", "dims", [32, 8, 12, 16], "dims[0] 32"),
    ("data", "ratios", [0.0, 0.5, 0.5], "train split is empty"),
], ids=["frame_len-32", "dims-end-32", "dims-start-32", "no-train-split"])
def test_inconsistent_train_config_exits_2_without_output_dir(workdir, capsys, section, key,
                                                              value, message):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


def no_data(monkeypatch):
    """Makes building the dataset fail the test: a rejection must come first."""
    monkeypatch.setattr(training, "build_dataset",
                        lambda *a: pytest.fail("data was built before the rejection"))


@pytest.mark.parametrize("command, flags", [
    ("train", []),
    ("eval", ["missing.json"]),
    ("sweep-beta", ["--betas", "0.001"]),
    ("ablate-placement", ["--placements", "1"]),
])
def test_empty_output_dir_exits_2_before_any_data(workdir, capsys, monkeypatch, command, flags):
    # An empty output_dir names no directory, so every command would fail
    # only after its work; the config is rejected before any data is built.
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc["output_dir"] = ""
    config.write_text(json.dumps(doc))
    no_data(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "output_dir must be a non-empty string" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("arch, message", [
    ({"placement": 0}, "placement 0 is out of range [1, 2]"),
    ({"placement": 9}, "placement 9 is out of range [1, 2]"),
    ({"activations": ["tanh", "gelu", "none"]}, "unknown activation 'gelu'"),
    ({"activations": ["tanh", "none"]}, "need 3 activations for 4 dims, got 2"),
    ({"dims": [16, 0, 12, 16]}, "dims must be positive, got [16, 0, 12, 16]"),
], ids=["placement-0", "placement-9", "unknown-activation", "activation-count", "zero-width"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_architecture_exits_2_before_any_data(workdir, capsys, monkeypatch, command, arch,
                                                  message):
    # eval's checkpoint does not exist, so exit 2 also shows that the config
    # was rejected before the checkpoint was read.
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc["arch"].update(arch)
    config.write_text(json.dumps(doc))
    no_data(monkeypatch)
    argv = {"train": ["train", str(config)],
            "eval": ["eval", str(config), str(tmp_path / "missing.json")]}[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("sweep-beta", ["--betas", "0.001", "nan"], "beta must be finite and >= 0, got 1.0, nan"),
    ("sweep-beta", ["--betas", "0.001", "inf"], "beta must be finite and >= 0, got 1.0, inf"),
    ("sweep-beta", ["--betas", "-1"], "beta must be finite and >= 0, got 1.0, -1.0"),
    ("ablate-placement", ["--placements", "1", "9"], "placement 9 is out of range [1, 2]"),
], ids=["beta-nan", "beta-inf", "beta-negative", "placement-9"])
def test_bad_sweep_value_exits_2_before_any_data(workdir, capsys, monkeypatch, command, flags,
                                                 message):
    tmp_path, config = workdir
    no_data(monkeypatch)
    assert cli.main([command, str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, where", [
    ("train", "epochs", 2.5, "train.epochs"),
    ("train", "batch_size", True, "train.batch_size"),
    ("arch", "placement", 1.9, "arch.placement"),
    ("arch", "dims", [16, 8.9, 12, 16], "arch.dims[1]"),
    ("train", "lr", "0.001", "train.lr"),
    ("data", "wav_paths", "abc", "data.wav_paths"),
    ("data", "ratios", [0.5, False, 0.5], "data.ratios[1]"),
    ("arch", "activations", "tanh", "arch.activations"),
    ("dsl", "tau", None, "dsl.tau"),
], ids=["epochs-float", "batch_size-bool", "placement-float", "dims-float", "lr-string",
        "wav_paths-string", "ratios-bool", "activations-string", "tau-null"])
def test_config_value_of_wrong_type_exits_2(workdir, capsys, section, key, value, where):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    assert f"error: config {where}: expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, where", [
    ("train", "lr", 10 ** 400, "train.lr"),
    ("data", "ratios", [0.5, 10 ** 400, 0.2], "data.ratios[1]"),
], ids=["lr", "ratios-element"])
def test_integer_too_large_for_a_float_names_its_key(workdir, capsys, section, key, value,
                                                     where):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    assert f"error: config {where}: integer too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _SCHEMA.items() for key in keys
], ids=lambda v: v)
def test_every_config_key_rejects_a_value_of_the_wrong_type(workdir, capsys, section, key):
    # An object is none of the JSON types a key takes: int, number, or list.
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = {}
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    assert f"error: config {section}.{key}: expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("data", "easy_noise_amp", 0.02), ("data", "hard_components", 3),
    ("data", "hard_freq_range", [0.02, 0.45]), ("data", "hard_amp_range", [0.2, 0.9]),
    ("dsl", "eps", 0.001),
])
def test_removed_config_key_is_unknown(workdir, capsys, section, key, value):
    # The corpus shape (data.py's constants) and the mask's hard-zero cutoff
    # (routing.HARD_ZERO_EPS) are not config: a key that set one is now a
    # stray key, even at the value the constant holds.
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    assert f"error: config section {section}: unknown keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, name", [
    ({"train": []}, "train"),
    ({"arch": ""}, "arch"),
    ({"dsl": "abc"}, "dsl"),
    ({"data": 5}, "data"),
    ({"train": None}, "train"),
], ids=["train-list", "arch-string", "dsl-string", "data-int", "train-null"])
def test_config_section_that_is_not_an_object_exits_2(tmp_path, capsys, doc, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", str(path)]) == 2
    assert f"error: config section {name}: expected an object" in capsys.readouterr().err


def test_config_integer_with_too_many_digits_exits_2(tmp_path, capsys):
    # json.load raises a plain ValueError past the integer digit limit.
    path = tmp_path / "config.json"
    path.write_text('{"train": {"lr": 1' + "0" * 5000 + "}}")
    assert cli.main(["train", str(path)]) == 2
    assert "error: config" in capsys.readouterr().err


def test_integer_accepted_for_number_key():
    run = parse_config({"train": {"lr": 1}, "dsl": {"tau": 0}})
    assert (type(run.train_cfg.lr), run.train_cfg.lr) == (float, 1.0)
    assert (type(run.tau), run.tau) == (float, 0.0)


def test_defaults_written_as_json_parse_to_the_defaults():
    assert parse_config(json.loads(json.dumps(DEFAULTS))) == parse_config({})


def test_unknown_command_exits_2():
    assert cli.main(["frobnicate"]) == 2


def test_empty_config_is_dataclass_defaults_except_data_seed():
    assert CLI_DATA_SEED == 11  # the benchmark trains on this corpus
    want = TrainConfig(data=DataConfig(spec=dat.SignalSpec(seed=CLI_DATA_SEED)))
    assert parse_config({}).train_cfg == want


def test_train_epochs_zero_writes_initial_checkpoint(workdir):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc["train"]["epochs"] = 0
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint_epoch_0000.json").exists()
    assert (out / "metrics.csv").read_text().splitlines() == [
        "epoch,l_recon,l_switch,l_lwd,l_comp,sparsity,switch_mae"
    ]


def test_train_writes_all_outputs(workdir):
    tmp_path, config = workdir
    assert cli.main(["train", str(config)]) == 0
    out = tmp_path / "out"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == TINY_CONFIG["train"]["epochs"] + 1
    assert (out / "checkpoint_final.json").exists()
    assert (out / "calibration.csv").exists()
    assert (out / "calibration_scatter.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "train"
    assert summary["epochs"] == 4


def test_final_checkpoint_serialized_once(workdir, monkeypatch):
    tmp_path, config = workdir
    serialized = []
    real = training.checkpoint_json

    def counting(ckpt):
        serialized.append(ckpt.epoch)
        return real(ckpt)

    monkeypatch.setattr(training, "checkpoint_json", counting)
    assert cli.main(["train", str(config)]) == 0
    assert serialized == [0, 2, 4]
    out = tmp_path / "out"
    final = (out / "checkpoint_final.json").read_bytes()
    assert final == (out / "checkpoint_epoch_0004.json").read_bytes()


def test_train_idempotent(workdir):
    tmp_path, config = workdir
    assert cli.main(["train", str(config)]) == 0
    first = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert cli.main(["train", str(config)]) == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == first


def test_seed_override_changes_run(workdir):
    tmp_path, config = workdir
    assert cli.main(["train", str(config)]) == 0
    base = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert cli.main(["--seed", "77", "train", str(config)]) == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() != base


@pytest.mark.parametrize("section, key, flags", [
    ("data", "seed", []),
    ("train", "seed", []),
    (None, "seed", ["--seed", "-1"]),
    ("data", "n_easy", []),
    ("data", "n_hard", []),
], ids=["data.seed", "train.seed", "--seed", "n_easy", "n_hard"])
def test_negative_seed_or_corpus_size_exits_2(workdir, capsys, section, key, flags):
    tmp_path, config = workdir
    if section is not None:
        doc = json.loads(config.read_text())
        doc[section][key] = -1
        config.write_text(json.dumps(doc))
    assert cli.main([*flags, "train", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


# A size past MAX_SIZE is rejected when the config is parsed, before any array
# is allocated or frame generated. Only values above the limit are tried: one
# at the limit would train or generate for real.
@pytest.mark.parametrize("size", [10**30, MAX_SIZE + 1], ids=["1e30", "limit+1"])
@pytest.mark.parametrize("section, key, value, field", [
    ("arch", "dims", lambda n: [16, n, 12, 16], "dims[1]"),
    ("data", "frame_len", lambda n: n, "frame_len"),
    ("data", "n_easy", lambda n: n, "n_easy"),
    ("data", "n_hard", lambda n: n, "n_hard"),
    # (863 + 16) * (19071 + 16) - 256 == MAX_SIZE + 1 weights, each entry in bounds.
    ("arch", "dims", lambda n: [16, 863, 19071, 16], "the dense weight count of dims"),
], ids=["dims", "frame_len", "n_easy", "n_hard", "weight-count"])
def test_size_past_the_limit_exits_2(workdir, capsys, size, section, key, value, field):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc[section][key] = value(size)
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be <= MAX_SIZE ({MAX_SIZE}), got ")
    assert not (tmp_path / "out").exists()


def test_trunk_does_not_depend_on_the_light_decoder(tmp_path):
    # Reconstruction alone trains prefix, mask and suffix; the light decoder
    # reads a detached latent and draws from its own seed stream. So two rho
    # values, two light-decoder shapes, leave every trunk bit as it was.
    runs = {}
    for rho in (0.25, 0.5):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["arch"]["rho"] = rho
        cfg["output_dir"] = str(tmp_path / f"rho{rho}")
        path = tmp_path / f"rho{rho}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", str(path)]) == 0
        out = tmp_path / f"rho{rho}"
        params = training.load_checkpoint(out / "checkpoint_final.json").params
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        columns = dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))
        runs[rho] = params, columns
    (params_a, columns_a), (params_b, columns_b) = runs[0.25], runs[0.5]
    assert params_a["light.0.weights"].shape != params_b["light.0.weights"].shape
    trunk = [n for n in params_a if n.startswith(("prefix.", "suffix.")) or n == "mask.w"]
    assert len(trunk) == 2 * (len(TINY_CONFIG["arch"]["dims"]) - 1) + 1
    for name in trunk:
        assert params_a[name].tobytes() == params_b[name].tobytes(), name
    for column in ("l_recon", "l_comp", "sparsity"):
        assert columns_a[column] == columns_b[column], column
    assert columns_a["l_lwd"] != columns_b["l_lwd"]


class TestEval:
    @pytest.fixture()
    def trained(self, workdir):
        tmp_path, config = workdir
        assert cli.main(["train", str(config)]) == 0
        return tmp_path, config, tmp_path / "out" / "checkpoint_final.json"

    def test_eval_keeps_train_summary(self, trained):
        tmp_path, config, ckpt = trained
        out = tmp_path / "out"
        train_summary = (out / "summary.json").read_bytes()
        assert cli.main(["eval", str(config), str(ckpt), "--tau", "0.5"]) == 0
        assert (out / "summary.json").read_bytes() == train_summary
        assert json.loads(train_summary)["command"] == "train"
        assert json.loads((out / "eval_summary.json").read_text())["command"] == "eval"

    def test_flags_mutually_exclusive(self, trained, capsys):
        tmp_path, config, ckpt = trained
        code = cli.main(["eval", str(config), str(ckpt),
                         "--tau", "0.5", "--target-light-fraction", "0.5"])
        assert code == 2

    def test_tau_zero_routes_nothing_light(self, trained):
        tmp_path, config, ckpt = trained
        assert cli.main(["eval", str(config), str(ckpt), "--tau", "0"]) == 0
        routing_csv = (tmp_path / "out" / "routing.csv").read_text().splitlines()
        for line in routing_csv[1:]:
            assert line.split(",")[2] == "0"  # light count column
        assert (tmp_path / "out" / "parity.csv").exists()
        assert (tmp_path / "out" / "probe.csv").exists()

    def test_target_fraction_realized_on_calibrate_split(self, trained):
        from switchpass import routing as rt
        from switchpass import training
        from switchpass.autograd import Tensor
        from switchpass.config import load_run_config

        tmp_path, config, ckpt = trained
        assert cli.main(["eval", str(config), str(ckpt),
                         "--target-light-fraction", "0.5"]) == 0
        summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
        run = load_run_config(config)
        model = training.restore_model(run.train_cfg, training.load_checkpoint(ckpt))
        dataset = training.build_dataset(run.train_cfg.data)
        preds = model.switch_predictions(Tensor(dat.frames_to_matrix(dataset.calibrate)))
        realized = float(np.mean(preds < summary["tau"]))
        assert abs(realized - 0.5) <= 0.02

    @pytest.mark.parametrize("flags", [
        ["--target-light-fraction", "1.5"],
        ["--tau", "-1"],
        ["--tau", "nan"],
    ], ids=["fraction-1.5", "tau-negative", "tau-nan"])
    def test_invalid_tau_flags_exit_2(self, trained, flags, capsys):
        tmp_path, config, ckpt = trained
        assert cli.main(["eval", str(config), str(ckpt), *flags]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dsl, ratios", [
        ({"tau": float("nan")}, None),
        ({"tau": -0.1}, None),
        ({}, [0.8, 0.0, 0.2]),
        ({}, [0.8, 0.2, 0.0]),
    ], ids=["tau-nan", "tau-negative", "no-calibrate-split", "no-test-split"])
    def test_invalid_eval_config_exits_2(self, trained, dsl, ratios, capsys):
        tmp_path, config, ckpt = trained
        doc = json.loads(config.read_text())
        doc["dsl"].update(dsl)
        if ratios is not None:
            doc["data"]["ratios"] = ratios
        config.write_text(json.dumps(doc))
        assert cli.main(["eval", str(config), str(ckpt)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejected_eval_creates_no_output_dir(self, trained):
        tmp_path, config, ckpt = trained
        out = redirect_output(config, tmp_path)
        assert cli.main(["eval", str(config), str(ckpt), "--tau", "-1"]) == 2
        assert not out.exists()

    def test_corrupt_checkpoint_exits_4(self, trained):
        tmp_path, config, ckpt = trained
        bad = tmp_path / "bad.json"
        bad.write_text(ckpt.read_text()[:100])
        assert cli.main(["eval", str(config), str(bad)]) == 4

    def test_null_mask_weights_exit_4(self, trained, capsys):
        tmp_path, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        doc["params"]["mask.w"]["float64le"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["eval", str(config), str(bad), "--tau", "0.1"]) == 4
        assert "error: checkpoint field params.mask.w.float64le" in capsys.readouterr().err

    def test_non_utf8_checkpoint_exits_4(self, trained, capsys):
        tmp_path, config, ckpt = trained
        bad = tmp_path / "bad.json"
        bad.write_bytes(ckpt.read_bytes().replace(b'"epoch"', b'"\xffepoch"', 1))
        assert cli.main(["eval", str(config), str(bad)]) == 4
        assert "error: checkpoint" in capsys.readouterr().err

    def test_checkpoint_integer_with_too_many_digits_exits_4(self, trained, capsys):
        tmp_path, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace(f'"epoch": {doc["epoch"]}',
                                               '"epoch": 1' + "0" * 5000, 1))
        assert "0" * 5000 in bad.read_text()
        assert cli.main(["eval", str(config), str(bad)]) == 4
        assert "error: checkpoint" in capsys.readouterr().err

    def test_version_1_checkpoint_exits_4(self, trained, capsys):
        tmp_path, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        doc["format_version"] = 1
        bad = tmp_path / "v1.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["eval", str(config), str(bad)]) == 4
        assert "error: checkpoint field format_version" in capsys.readouterr().err

    def test_version_2_checkpoint_exits_4(self, trained, capsys):
        # Version 2 stored weights (out, in): square layers would pass every
        # shape check and load transposed.
        tmp_path, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        doc["format_version"] = 2
        bad = tmp_path / "v2.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["eval", str(config), str(bad)]) == 4
        assert "error: checkpoint field format_version" in capsys.readouterr().err

    def test_version_3_checkpoint_exits_4(self, trained, capsys):
        # Version 3 stored each array as a list of JSON decimals, and the
        # metric history beside the parameters.
        tmp_path, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        doc["format_version"] = 3
        doc["params"] = {
            k: {"shape": v["shape"],
                "values": np.frombuffer(bytes.fromhex(v["float64le"]), "<f8").tolist()}
            for k, v in doc["params"].items()}
        doc["metrics"] = []
        bad = tmp_path / "v3.json"
        bad.write_text(json.dumps(doc, indent=1) + "\n")
        assert cli.main(["eval", str(config), str(bad)]) == 4
        assert "error: checkpoint field format_version: got 3, expected 4" \
            in capsys.readouterr().err

    def test_missing_checkpoint_exits_5(self, trained):
        tmp_path, config, _ = trained
        assert cli.main(["eval", str(config), str(tmp_path / "nope.json")]) == 5


class TestSweep:
    def test_single_beta_single_row(self, workdir):
        tmp_path, config = workdir
        assert cli.main(["sweep-beta", str(config), "--betas", "0.001"]) == 0
        lines = (tmp_path / "out" / "sparsity.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_betas_sorted_ascending(self, workdir):
        tmp_path, config = workdir
        assert cli.main(["sweep-beta", str(config), "--betas", "0.01", "0.0001"]) == 0
        lines = (tmp_path / "out" / "sparsity.csv").read_text().splitlines()
        betas = [float(line.split(",")[0]) for line in lines[1:]]
        assert betas == sorted(betas)

    def test_negative_beta_exits_2(self, workdir, capsys):
        tmp_path, config = workdir
        assert cli.main(["sweep-beta", str(config), "--betas", "-0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejected_sweep_creates_no_output_dir(self, workdir):
        tmp_path, config = workdir
        out = redirect_output(config, tmp_path)
        assert cli.main(["sweep-beta", str(config), "--betas", "-1"]) == 2
        assert not out.exists()

    def test_empty_betas_exits_2(self, workdir):
        tmp_path, config = workdir
        assert cli.main(["sweep-beta", str(config), "--betas"]) == 2

    @pytest.mark.parametrize("command, flags, output", [
        ("sweep-beta", ["--betas", "0.0001", "0.01"], "sparsity.csv"),
        ("ablate-placement", ["--placements", "1", "2"], "ablation.csv"),
    ], ids=["sweep-beta", "ablate-placement"])
    def test_parallel_jobs_match_sequential(self, workdir, command, flags, output):
        tmp_path, config = workdir
        assert cli.main([command, str(config), *flags]) == 0
        sequential = (tmp_path / "out" / output).read_bytes()
        assert cli.main(["--jobs", "2", command, str(config), *flags]) == 0
        assert (tmp_path / "out" / output).read_bytes() == sequential


    @pytest.mark.parametrize("command, flags", [
        ("sweep-beta", ["--betas", "0.001"]),
        ("ablate-placement", ["--placements", "1"]),
    ], ids=["sweep-beta", "ablate-placement"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, workdir, capsys, command, flags, jobs):
        tmp_path, config = workdir
        out = redirect_output(config, tmp_path)
        assert cli.main(["--jobs", jobs, command, str(config), *flags]) == 2
        assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_invalid_placement_names_index(self, workdir, capsys):
        tmp_path, config = workdir
        assert cli.main(["ablate-placement", str(config), "--placements", "9"]) == 2
        assert "9" in capsys.readouterr().err

    def test_rejected_ablation_creates_no_output_dir(self, workdir):
        tmp_path, config = workdir
        out = redirect_output(config, tmp_path)
        assert cli.main(["ablate-placement", str(config), "--placements", "1", "9"]) == 2
        assert not out.exists()

    def test_single_placement_single_row(self, workdir):
        tmp_path, config = workdir
        assert cli.main(["ablate-placement", str(config), "--placements", "1"]) == 0
        lines = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 2


class TestGenData:
    def test_zero_frames_empty_dirs(self, workdir):
        tmp_path, config = workdir
        doc = json.loads(config.read_text())
        doc["data"]["n_easy"] = 0
        doc["data"]["n_hard"] = 0
        config.write_text(json.dumps(doc))
        out = tmp_path / "gen"
        assert cli.main(["gen-data", str(config), "--out", str(out)]) == 0
        assert (out / "easy").is_dir() and not list((out / "easy").iterdir())
        assert (out / "hard").is_dir() and not list((out / "hard").iterdir())

    def test_regeneration_identical(self, workdir):
        tmp_path, config = workdir
        out = tmp_path / "gen"
        assert cli.main(["gen-data", str(config), "--out", str(out)]) == 0
        first = (out / "hard" / "frames.wav").read_bytes()
        assert cli.main(["gen-data", str(config), "--out", str(out)]) == 0
        assert (out / "hard" / "frames.wav").read_bytes() == first

    def test_wav_roundtrip_matches_quantized_frames(self, workdir):
        from switchpass.config import load_run_config

        tmp_path, config = workdir
        out = tmp_path / "gen"
        assert cli.main(["gen-data", str(config), "--out", str(out)]) == 0
        run = load_run_config(config)
        spec = run.train_cfg.data.spec
        frames = dat.gen_easy(spec, run.train_cfg.data.n_easy)
        want = np.concatenate([f.samples for f in frames])
        want = np.clip(np.round(want * 32768.0), -32768, 32767) / 32768.0
        loaded = dat.load_wav(out / "easy" / "frames.wav", spec.frame_len)
        got = np.concatenate([f.samples for f in loaded])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("data, flags, message", [
    ({"n_easy": 60, "n_hard": 40}, [],
     "error: calibrate_threshold: 20 of 30 predictions are not finite"),
    ({}, [], "error: calibrate_threshold: 25 of 72 predictions are not finite"),
    ({}, ["--tau", "0.5"],
     "error: eval_reports: 25 of 48 switch predictions on the test split are not finite"),
], ids=["nan-quantile", "finite-quantile", "tau"])
def test_eval_with_non_finite_switch_predictions_exits_2(tmp_path, capsys, data, flags,
                                                         message):
    # Every weight is finite, so load_checkpoint accepts the checkpoint, but
    # alternating +-1e300 switch weights overflow some of the switch's
    # predictions. At 60/40 the 0.6 quantile is NaN; on TINY_CONFIG it is
    # still finite, and a given tau needs no quantile, yet the run diverged:
    # eval names the count before making output_dir.
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["data"].update(data)
    doc["train"]["epochs"] = 2
    doc["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 0
    ckpt = json.loads((tmp_path / "out" / "checkpoint_final.json").read_text())
    for name in ("switch.0.weights", "switch.1.weights"):
        size = int(np.prod(ckpt["params"][name]["shape"]))
        values = np.resize([1e300, -1e300], size).astype("<f8")
        ckpt["params"][name]["float64le"] = values.tobytes().hex()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ckpt))
    out = redirect_output(config, tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["eval", str(config), str(bad), *flags]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_eval_uses_config_fraction_when_no_flags(workdir):
    tmp_path, config = workdir
    doc = json.loads(config.read_text())
    doc["dsl"]["target_light_fraction"] = 0.25
    config.write_text(json.dumps(doc))
    assert cli.main(["train", str(config)]) == 0
    ckpt = tmp_path / "out" / "checkpoint_final.json"
    assert cli.main(["eval", str(config), str(ckpt)]) == 0
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["tau"] > 0


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A TINY_CONFIG checkpoint and its switch's predictions on the calibration split."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "output_dir": str(tmp_path / "out")}))
    assert cli.main(["train", str(config)]) == 0
    ckpt = tmp_path / "out" / "checkpoint_final.json"
    run = load_run_config(config)
    model = training.restore_model(run.train_cfg, training.load_checkpoint(ckpt))
    calibrate = training.build_dataset(run.train_cfg.data).calibrate
    return ckpt, model.switch_predictions(Tensor(dat.frames_to_matrix(calibrate)))


# A flag replaces both of the config's routing keys; an invalid value exits 2
# whether it comes from a flag or the config, even beside a valid flag.
# want is ("tau", τ), ("fraction", f) for the calibration quantile at f, or None.
@pytest.mark.parametrize("dsl, flags, want", [
    ({}, [], ("fraction", 0.6)),
    ({"tau": 0.05}, [], ("tau", 0.05)),
    ({"target_light_fraction": 0.25}, [], ("fraction", 0.25)),
    ({}, ["--tau", "0.07"], ("tau", 0.07)),
    ({}, ["--target-light-fraction", "0.4"], ("fraction", 0.4)),
    ({"tau": 0.05}, ["--target-light-fraction", "0.4"], ("fraction", 0.4)),
    ({"target_light_fraction": 0.25}, ["--tau", "0.07"], ("tau", 0.07)),
    ({}, ["--tau", "-1"], None),
    ({"tau": -1}, ["--tau", "0.07"], None),
    ({"target_light_fraction": 0.25}, ["--tau", "nan"], None),
], ids=["default", "config-tau", "config-fraction", "flag-tau", "flag-fraction",
        "flag-fraction-over-config-tau", "flag-tau-over-config-fraction",
        "flag-tau-negative", "config-tau-negative-beside-flag",
        "flag-tau-nan-over-config-fraction"])
def test_eval_tau_precedence(tiny_model, tmp_path, capsys, dsl, flags, want):
    ckpt, preds = tiny_model
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["dsl"].update(dsl)
    doc["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["eval", str(config), str(ckpt), *flags])
    if want is None:
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()
        return
    assert code == 0
    kind, value = want
    expected = value if kind == "tau" else routing.calibrate_threshold(preds, value)
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["tau"] == expected


# An empty split that eval needs is named with the split sizes and ratios,
# before the output directory is made; a given tau needs no calibration split.
@pytest.mark.parametrize("ratios, flags, message", [
    ([0.8, 0.0, 0.2], [], "the calibration split is empty"),
    ([0.8, 0.2, 0.0], ["--tau", "0.05"], "the test split is empty"),
    ([0.8, 0.0, 0.2], ["--tau", "0.05"], None),
    ([0.0, 0.5, 0.5], ["--tau", "0.05"], "the train split is empty, so the probe cannot be fitted"),
], ids=["no-calibrate-split", "no-test-split", "no-calibrate-split-with-tau", "no-train-split"])
def test_eval_names_an_empty_split(tiny_model, tmp_path, capsys, ratios, flags, message):
    ckpt, _ = tiny_model
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["data"]["ratios"] = ratios
    doc["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["eval", str(config), str(ckpt), *flags])
    if message is None:
        assert code == 0
        assert json.loads((tmp_path / "out" / "eval_summary.json").read_text())["tau"] == 0.05
        return
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval: {message}")
    assert "train/calibrate/test sizes" in err and f"ratios {tuple(ratios)}" in err
    assert not (tmp_path / "out").exists()
