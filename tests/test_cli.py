"""Config-file grammar and end-to-end command tests."""

import importlib
import json
import re
import struct

import numpy as np
import pytest

from geodin.bench import ShiftsConfig, TaskConfig
from geodin.calibrate import CalibConfig
from geodin.cli import main
from geodin.config import load_run_config
from geodin.errors import ConfigError
from geodin.persist import REPORT_FIELDS, fnv1a64, load_model, read_report, save_model
from geodin.train import TrainConfig, init_model

calibrate_module = importlib.import_module("geodin.calibrate")  # the package's `calibrate` is the function

SMALL_CONFIG = """\
# desk-size run for tests
[task]
k = 4
d_in = 10
n_per_class = 80
noise = 0.15
seed = 3
concept_similarities = 0.72, 0.82, 0.92

[train]
epochs = 8
batch_size = 32
hidden = 16, 16
feature_dim = 8

[calibrate]
epochs = 5
folds = 0

[shifts]
kinds = gaussian_noise
severities = 1, 3, 5
scores = g, h, u
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


class TestRunConfig:
    def test_defaults_without_file(self):
        cfg = load_run_config(None)
        assert cfg.task.k == 8
        assert cfg.train.epochs == 50
        assert cfg.calibrate.folds == 5

    def test_file_values_applied(self, config_file):
        cfg = load_run_config(config_file)
        assert cfg.task.k == 4
        assert cfg.train.hidden == (16, 16)
        assert cfg.shifts.severities == (1, 3, 5)
        assert cfg.shifts.scores == ("g", "h", "u")

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nepochs = 5\nlearning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"learning_rate.*line 3"):
            load_run_config(path)

    def test_unknown_section_cites_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[task]\nk = 4\n[optimizer]\nlr = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[optimizer\].*line 3"):
            load_run_config(path)

    def test_bad_value_cites_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nepochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"epochs.*line 2"):
            load_run_config(path)

    def test_sections_build_library_configs(self):
        cfg = load_run_config(None)
        assert cfg.train.config(7) == TrainConfig(seed=7)
        assert cfg.calibrate.config(7) == CalibConfig(seed=7)
        assert cfg.task.config() == TaskConfig()
        assert cfg.shifts.config() == ShiftsConfig()

    @pytest.mark.parametrize("section", ["train", "calibrate"])
    def test_seed_is_a_task_key_only(self, tmp_path, section):
        path = tmp_path / "seed.cfg"
        path.write_text(f"[{section}]\nseed = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.godn")]) == 2

    def test_line_without_equals_cites_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nepochs 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape("expected 'key = value' (line 2)")):
            load_run_config(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            load_run_config(path)

    def test_overrides(self, config_file):
        cfg = load_run_config(config_file, ["train.epochs=3", "task.seed=9"])
        assert cfg.train.epochs == 3
        assert cfg.task.seed == 9

    def test_bad_override_key(self, config_file):
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(config_file, ["train.warmup=3"])

    def test_unknown_score_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[shifts]\nscores = g, mahalanobis\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mahalanobis"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "text,lines",
        [
            ("[task]\nk = 3\n[train]\nepochs = 2\n[task]\nk = 4\n", (2, 6)),
            ("[train]\nepochs = 2\nepochs = 3\n", (2, 3)),
        ],
        ids=["two-sections", "one-section"],
    )
    def test_a_key_set_twice_in_the_file_cites_both_lines(self, tmp_path, capsys, text, lines):
        path = tmp_path / "twice.cfg"
        path.write_text(text, encoding="utf-8")
        message = re.escape(f"is set twice (lines {lines[0]} and {lines[1]})")
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.godn")]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "m.godn").exists()

    def test_a_key_overridden_twice_takes_the_last_value(self, config_file):
        assert load_run_config(config_file, ["task.k=3", "task.k=5"]).task.k == 5

    @pytest.mark.parametrize("value", ["8, , 8", "8,,8", "8, 8,", ", 8"])
    def test_an_empty_list_item_names_the_key(self, tmp_path, value):
        path = tmp_path / "hidden.cfg"
        path.write_text(f"[train]\nhidden = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"hidden in \[train\] \(line 2\): empty item"):
            load_run_config(path)
        with pytest.raises(ConfigError, match="hidden in override .*: empty item"):
            load_run_config(None, [f"train.hidden={value}"])

    def test_an_empty_value_is_the_empty_list(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[shifts]\nkinds =\nconcept = true\n", encoding="utf-8")
        assert load_run_config(path).shifts.kinds == ()

    def test_echo_dict_is_json_serializable(self, config_file):
        cfg = load_run_config(config_file)
        doc = json.dumps(cfg.to_dict())
        assert '"k": 4' in doc


# (overrides, a fragment of the error message) for every check made at load time
INVALID_CONFIGS = {
    "unknown_variant": (["train.variant=bogus"], "bogus"),
    "unknown_kind": (["shifts.kinds=gaussian_noise,salt"], "salt"),
    "unknown_score": (["shifts.scores=g,mahalanobis"], "mahalanobis"),
    "empty_scores": (["shifts.scores="], "at least one score"),
    "empty_kinds": (["shifts.kinds=", "shifts.include_control=false", "shifts.concept=false"], "the sweep is empty"),
    "empty_severities": (
        ["shifts.severities=", "shifts.include_control=false", "shifts.concept=false"], "the sweep is empty"
    ),
    "severity_0": (["shifts.severities=0,1"], "1..5"),
    "severity_6": (["shifts.severities=1,6"], "1..5"),
    "calibrate_kind": (["calibrate.shift_kind=blur"], "blur"),
    "negative_seed": (["task.seed=-1"], "seed"),
    "seed_2**64": ([f"task.seed={2**64}"], "seed"),
    "removed_concept_groups": (["task.concept_groups=5"], "unknown key 'concept_groups'"),
    "zero_epochs": (["train.epochs=0"], "epochs"),
    "one_class": (["task.k=1"], "2 classes"),
    "negative_folds": (["calibrate.folds=-1"], "folds"),
    "decreasing_ladder": (["task.concept_similarities=0.9,0.8,0.7,0.6,0.5"], "increasing"),
    "calibrate_severity_9": (["calibrate.shift_kind=smoothing", "calibrate.shift_severity=9"], "severity"),
    "calibrate_severity_-1": (["calibrate.shift_kind=smoothing", "calibrate.shift_severity=-1"], "severity"),
    "severity_without_kind": (["calibrate.shift_severity=3"], "shift kind"),
    "nan_lr0": (["train.lr0=nan"], "lr0"),
    "calibrate_nan_lr0": (["calibrate.lr0=nan"], "lr0"),
    "inf_lr0": (["train.lr0=inf"], "lr0"),
    "calibrate_inf_lr0": (["calibrate.lr0=inf"], "lr0"),
    "inf_weight_decay": (["train.weight_decay=inf"], "weight_decay"),
    "inf_noise": (["task.noise=inf"], "noise"),
    "calibrate_momentum": (["calibrate.momentum=1.5"], "momentum"),
    "repeated_kinds": (["shifts.kinds=gaussian_noise,smoothing,smoothing"], "repeated kinds: smoothing"),
    "repeated_severities": (["shifts.severities=2,4,2"], "repeated severities: 2"),
    "repeated_scores": (["shifts.scores=g,u,g,u"], "repeated scores: g, u"),
    "d_in_1": (["task.d_in=1"], "need d_in >= 2"),
    "n_per_class_4": (["task.n_per_class=4"], "at least 5 samples"),
    "empty_train_split": (["task.val_frac=0.5", "task.test_frac=0.5"], "split fractions leave an empty split"),
    "no_concept_groups": (["task.concept_similarities="], "at least one concept group"),
    "empty_concept_group": (["task.concept_n_per_class=0"], "a concept group needs"),
    "similarity_1": (["task.concept_similarities=0.5,0.6,0.7,0.8,1.0"], "[0, 1)"),
    "zero_width": (["train.hidden=4,0"], "layer widths"),
    "zero_batch_size": (["train.batch_size=0"], "batch_size"),
    "not_a_boolean": (["train.decay_heads=maybe"], "not a boolean"),
    "override_without_dot": (["trainepochs=3"], "section.key=value"),
    "unknown_override_section": (["bogus.key=1"], "unknown section"),
}


def _cli_args(overrides) -> list[str]:
    argv = []
    for item in overrides:
        key, value = item.split("=", 1)
        argv += ["--seed", value] if key == "task.seed" else ["--set", item]
    return argv


class TestValidation:
    @pytest.mark.parametrize("overrides,message", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS)
    def test_load_rejects(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(None, overrides)

    @pytest.mark.parametrize("overrides,message", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS)
    def test_train_exits_2(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "m.godn"
        assert main(["train", *_cli_args(overrides), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    def test_the_largest_u64_seed_is_valid(self):
        seed = 2**64 - 1
        cfg = load_run_config(None, [f"task.seed={seed}"])
        assert cfg.task.seed == seed
        for config in (TaskConfig(seed=seed), TrainConfig(seed=seed), CalibConfig(seed=seed)):
            config.validate()
        for config in (TaskConfig(seed=seed + 1), TrainConfig(seed=seed + 1), CalibConfig(seed=seed + 1)):
            with pytest.raises(ConfigError, match="seed"):
                config.validate()

    @pytest.mark.parametrize("command", ["train", "detect", "calibrate"])
    def test_seed_of_2_64_exits_2_and_writes_nothing(self, config_file, tmp_path, capsys, command):
        # A checkpoint's header holds the seed as a u64, so train used to fail at save, after training.
        cfg = load_run_config(config_file)
        model = init_model(cfg.train.config(cfg.task.seed), cfg.task.d_in, cfg.task.k)
        model.meta["trained"] = True
        checkpoint = tmp_path / "model.godn"
        save_model(model, checkpoint)
        argv = [command, "--config", str(config_file), "--seed", str(2**64), "--out", str(tmp_path / "out")]
        assert main(argv + ([] if command == "train" else ["--checkpoint", str(checkpoint)])) == 2
        assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.godn", "run.cfg"]


class TestCmdTrain:
    def test_smoke_run(self, config_file, tmp_path, capsys):
        out = tmp_path / "model.godn"
        code = main(["train", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert out.exists()
        log = tmp_path / "model.train_log.csv"
        assert log.exists()
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,lr"
        assert len(lines) == 9  # header + 8 epochs
        echo = json.loads((tmp_path / "model.config.json").read_text())
        assert echo["task"]["k"] == 4
        assert "checkpoint" in capsys.readouterr().out

    @pytest.mark.parametrize("out,stem", [("runs/a.b.godn", "runs/a.b"), ("runs/m", "runs/m"), ("m.v1", "m")])
    def test_outputs_are_named_by_replacing_the_last_suffix(self, config_file, tmp_path, out, stem):
        argv = ["--config", str(config_file), "--set", "train.epochs=1"]
        assert main(["train", *argv, "--out", str(tmp_path / out)]) == 0
        assert main(["calibrate", *argv, "--checkpoint", str(tmp_path / out), "--out", str(tmp_path / out)]) == 0
        names = [".train_log.csv", ".config.json", ".calibration.json"]
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == sorted(
            ["run.cfg", out, *(stem + name for name in names)]
        )

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nepochz = 5\n", encoding="utf-8")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.godn")])
        assert code == 2
        err = capsys.readouterr().err
        assert "epochz" in err and "line 2" in err

    def test_seed_override_changes_checkpoint(self, config_file, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.godn", "b.godn", "c.godn"))
        assert main(["train", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["train", "--config", str(config_file), "--out", str(b), "--seed", "77"]) == 0
        assert main(["train", "--config", str(config_file), "--out", str(c)]) == 0
        assert a.read_bytes() != b.read_bytes()  # seed override took effect
        assert a.read_bytes() == c.read_bytes()  # reruns are idempotent

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_writes_no_files(self, tmp_path, capsys):
        overrides = ["train.lr0=1e300", "train.epochs=1", "task.n_per_class=20", "train.batch_size=512"]
        argv = ["train", "--out", str(tmp_path / "big.godn")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 4
        assert "numeric failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def trained_checkpoint(config_file, tmp_path):
    out = tmp_path / "model.godn"
    assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    return out


class TestCmdDetect:
    def test_rows_and_determinism(self, config_file, trained_checkpoint, tmp_path, capsys):
        out1 = tmp_path / "rep1"
        out2 = tmp_path / "rep2"
        code = main(
            ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(out1)]
        )
        assert code == 0
        report = read_report(out1.with_suffix(".csv"))
        # control + 3 gaussian severities + 3 concept groups, x3 scores
        assert len(report.rows) == (1 + 3 + 3) * 3
        control = [r for r in report.rows if r.shift_kind == "none"]
        assert len(control) == 3
        gauss = [r for r in report.rows if r.shift_kind == "gaussian_noise" and r.score == "g"]
        assert [r.severity for r in gauss] == [1, 3, 5]
        assert main(
            ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(out2)]
        ) == 0
        assert out1.with_suffix(".csv").read_text() == out2.with_suffix(".csv").read_text()
        doc = json.loads(out1.with_suffix(".json").read_text())
        assert doc["config"]["task"]["k"] == 4  # effective config echoed

    def test_jobs_flag_accepted_and_ignored(self, config_file, trained_checkpoint, tmp_path):
        out1, out2 = tmp_path / "plain", tmp_path / "jobs"
        base = ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint)]
        assert main([*base, "--out", str(out1)]) == 0
        assert main([*base, "--out", str(out2), "--jobs", "4"]) == 0
        for suffix in (".csv", ".json"):
            assert out1.with_suffix(suffix).read_bytes() == out2.with_suffix(suffix).read_bytes()

    def test_mismatched_config_exit_2(self, config_file, trained_checkpoint, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--config",
                str(config_file),
                "--set",
                "task.k=6",
                "--checkpoint",
                str(trained_checkpoint),
                "--out",
                str(tmp_path / "rep"),
            ]
        )
        assert code == 2

    def test_empty_score_list_exit_2(self, config_file, trained_checkpoint, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint)]
        assert main([*argv, "--set", "shifts.scores=", "--out", str(out)]) == 2
        assert "at least one score" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    def test_repeated_shift_entries_exit_2(self, config_file, trained_checkpoint, tmp_path, capsys):
        # Each of these used to compute the same cell again and write its rows once more.
        out = tmp_path / "rep"
        argv = ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(out)]
        overrides = ["shifts.scores=g,g", "shifts.kinds=smoothing,smoothing", "shifts.severities=2,2"]
        assert main([*argv, *(a for o in overrides for a in ("--set", o))]) == 2
        assert "repeated kinds: smoothing" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("emptied", ["shifts.kinds=", "shifts.severities="])
    def test_empty_sweep_exit_2(self, config_file, trained_checkpoint, tmp_path, capsys, emptied):
        out = tmp_path / "rep"
        argv = ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(out)]
        overrides = [emptied, "shifts.include_control=false", "shifts.concept=false"]
        assert main([*argv, *(a for o in overrides for a in ("--set", o))]) == 2
        assert "the sweep is empty" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "corruption", ["nan_weight", "zero_width", "flag_bits", "short_header", "huge_n_hidden"]
    )
    def test_resigned_malformed_checkpoint_exit_3(self, config_file, trained_checkpoint, tmp_path, capsys, corruption):
        blob = bytearray(trained_checkpoint.read_bytes())
        # file offsets: magic/version 0, seed 8, flags 16, variant 20, d_in 24, n_hidden 28,
        # two hidden widths 32, d_feature/n_classes 40, first extractor weight 48
        if corruption == "nan_weight":
            blob[48:56] = struct.pack("<d", float("nan"))
        elif corruption == "zero_width":
            blob[32:36] = struct.pack("<I", 0)
        elif corruption == "flag_bits":
            blob[16:20] = struct.pack("<I", 0xF1)
        elif corruption == "short_header":
            blob = blob[:20] + blob[-8:]
        else:
            blob[28:32] = struct.pack("<I", 2**32 - 1)
        payload = bytes(blob[8:-8])
        broken = tmp_path / "broken.godn"
        broken.write_bytes(bytes(blob[:8]) + payload + struct.pack("<Q", fnv1a64(payload)))
        code = main(["detect", "--config", str(config_file), "--checkpoint", str(broken), "--out", str(tmp_path / "rep")])
        assert code == 3
        expected = {
            "nan_weight": "non-finite",
            "zero_width": "invalid checkpoint shapes",
            "flag_bits": "flag bits 0xf0",
            "short_header": "checkpoint truncated",
            "huge_n_hidden": "checkpoint truncated",
        }[corruption]
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()

    def test_missing_checkpoint_exit_3(self, config_file, tmp_path):
        code = main(
            ["detect", "--config", str(config_file), "--checkpoint", str(tmp_path / "none.godn"), "--out", str(tmp_path / "rep")]
        )
        assert code == 3


@pytest.mark.parametrize("command", ["detect", "calibrate"])
@pytest.mark.parametrize("seed_args, seed", [([], 7), (["--seed", "9"], 9)])
def test_embedded_config_names_the_run_seed(config_file, tmp_path, command, seed_args, seed):
    """Without --seed a run uses the checkpoint's seed, and so does the config it embeds."""
    checkpoint, out = tmp_path / "model.godn", tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--seed", "7", "--out", str(checkpoint)]) == 0
    argv = [command, "--config", str(config_file), "--checkpoint", str(checkpoint), "--out", str(out), *seed_args]
    assert main(argv) == 0
    if command == "detect":
        doc = json.loads(out.with_suffix(".json").read_text())
        assert {row["seed"] for row in doc["rows"]} == {seed}
    else:
        doc = json.loads((tmp_path / "out.calibration.json").read_text())
    assert doc["config"]["task"]["seed"] == seed


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_embedded_config_names_the_checkpoint_architecture(config_file, tmp_path, command):
    """A run under a config of other widths and variant embeds the checkpoint's, not the config's."""
    checkpoint, out = tmp_path / "model.godn", tmp_path / "out"
    arch = ["--set", "train.hidden=16,24", "--set", "train.feature_dim=5", "--set", "train.variant=beta_only"]
    assert main(["train", "--config", str(config_file), *arch, "--out", str(checkpoint)]) == 0
    assert main([command, "--config", str(config_file), "--checkpoint", str(checkpoint), "--out", str(out)]) == 0
    report = out.with_suffix(".json") if command == "detect" else tmp_path / "out.calibration.json"
    embedded = json.loads(report.read_text())["config"]["train"]
    trained = json.loads((tmp_path / "model.config.json").read_text())["train"]
    assert (embedded["hidden"], embedded["feature_dim"], embedded["variant"]) == ([16, 24], 5, "beta_only")
    assert embedded == trained


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_untrained_checkpoint_exit_3(config_file, tmp_path, capsys, command):
    cfg = load_run_config(config_file)
    untrained = tmp_path / "untrained.godn"
    save_model(init_model(cfg.train.config(cfg.task.seed), cfg.task.d_in, cfg.task.k), untrained)
    out = tmp_path / "out"
    assert main([command, "--config", str(config_file), "--checkpoint", str(untrained), "--out", str(out)]) == 3
    assert "untrained" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "untrained.godn"]


class TestCmdCalibrate:
    def test_report_and_score_immutability(self, config_file, trained_checkpoint, tmp_path):
        cal = tmp_path / "cal.godn"
        code = main(
            ["calibrate", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(cal)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "cal.calibration.json").read_text())
        for phase in ("before", "after"):
            for metric in ("accuracy", "ece", "nll"):
                assert metric in doc["splits"]["val"][phase]
        assert doc["nll_after"] <= doc["nll_before"]

        # detection rerun on the calibrated checkpoint reproduces score rows exactly
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        main(["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(r1)])
        main(["detect", "--config", str(config_file), "--checkpoint", str(cal), "--out", str(r2)])
        a = read_report(r1.with_suffix(".csv"))
        b = read_report(r2.with_suffix(".csv"))
        for ra, rb in zip(a.rows, b.rows):
            if ra.score in ("g", "h", "u"):
                assert ra == rb

    def test_shifted_tuning_split(self, config_file, trained_checkpoint, tmp_path):
        def tuning_metrics(name, *sets):
            argv = ["calibrate", "--config", str(config_file), "--checkpoint", str(trained_checkpoint)]
            for item in sets:
                argv += ["--set", item]
            assert main([*argv, "--out", str(tmp_path / f"{name}.godn")]) == 0
            return json.loads((tmp_path / f"{name}.calibration.json").read_text())["splits"]["val"]

        clean = tuning_metrics("clean")
        assert tuning_metrics("zero", "calibrate.shift_kind=gaussian_noise") == clean
        assert tuning_metrics("shifted", "calibrate.shift_kind=gaussian_noise", "calibrate.shift_severity=3") != clean

    def test_vanilla_checkpoint_exit_3(self, config_file, tmp_path, capsys):
        # The head variant comes from the checkpoint file, whatever the config says.
        vanilla = tmp_path / "v.godn"
        assert main(
            ["train", "--config", str(config_file), "--set", "train.variant=vanilla", "--out", str(vanilla)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["calibrate", "--config", str(config_file), "--checkpoint", str(vanilla), "--out", str(tmp_path / "c.godn")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "vanilla head" in err and "temperature_scale" not in err
        assert not (tmp_path / "c.godn").exists()


    def test_folds_above_validation_rows_exit_2_before_any_step(self, config_file, trained_checkpoint, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args, **kwargs: steps.append(args))
        argv = ["calibrate", "--config", str(config_file), "--set", "calibrate.folds=65", "--checkpoint", str(trained_checkpoint)]
        assert main([*argv, "--out", str(tmp_path / "cal.godn")]) == 2  # 4 classes x 16 validation rows
        assert "exceeds validation size 64" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "cal.godn").exists()

    def test_a_diverging_tuning_rate_exits_4_and_writes_nothing(self, config_file, trained_checkpoint, tmp_path, capsys):
        argv = ["calibrate", "--config", str(config_file), "--set", "calibrate.lr0=1e308"]
        with pytest.warns(RuntimeWarning):
            code = main([*argv, "--checkpoint", str(trained_checkpoint), "--out", str(tmp_path / "cal.godn")])
        assert code == 4
        assert "non-finite tuning NLL nan at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "cal.godn").exists()


class TestCmdSplits:
    def setup_fixture(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text(
            "cat 1.0 0.0\nnear 0.9 0.1\nmid 0.5 0.2\nfar 0.1 0.3\n", encoding="utf-8"
        )
        id_names = tmp_path / "id.txt"
        id_names.write_text("cat\n", encoding="utf-8")
        ood_names = tmp_path / "ood.txt"
        ood_names.write_text("near\nmid\nfar\n", encoding="utf-8")
        return emb, id_names, ood_names

    def test_toy_fixture_ordering(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        out = tmp_path / "splits.csv"
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "group,class,similarity,group_mean,group_std"
        assert lines[1].startswith("0,far,") and lines[3].startswith("2,near,")

    def test_missing_token_exit_3(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        ood_names.write_text("near\nunicorn\n", encoding="utf-8")
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert "unicorn" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "id_text,ood_text,message",
        [
            ("cat\n", "near\nmid\nnear\nfar\nmid\nnear\n", "repeated class names: mid, near"),
            ("cat\nfar\ncat\n", "near\nmid\n", "repeated class names: cat"),
            ("cat\nyak\n", "near\nyak\n", "unresolvable class names: yak"),
        ],
        ids=["ood_repeat", "id_repeat", "missing_in_both"],
    )
    def test_repeated_name_exit_3_names_it_once(self, tmp_path, capsys, id_text, ood_text, message):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        id_names.write_text(id_text, encoding="utf-8")
        ood_names.write_text(ood_text, encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err.strip().endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_embedding_exit_3(self, tmp_path, capsys, bad):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        emb.write_text(emb.read_text(encoding="utf-8").replace("mid 0.5", f"mid {bad}"), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(out)]
        )
        assert code == 3
        assert "line 3: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_embedding_file_exit_3(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        emb.write_text("", encoding="utf-8")
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert "no records" in capsys.readouterr().err

    def test_comment_only_names_file_exit_3(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        ood_names.write_text("# near\n\n   # mid\n", encoding="utf-8")
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "1", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert "no class names" in capsys.readouterr().err

    def test_zero_groups_exit_2(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        out = tmp_path / "s.csv"
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "0", "--out", str(out)]
        )
        assert code == 2
        assert "need at least one group, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_first_embedding_record_without_components_exit_3(self, tmp_path, capsys):
        # The first record sets the dimension, so a bare token there is malformed rather than ragged.
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        emb.write_text("cat\n" + emb.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(out)]
        )
        assert code == 3
        assert "line 1: record has no vector components" in capsys.readouterr().err
        assert not out.exists()

    def test_more_groups_than_names_exit_2(self, tmp_path, capsys):
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        code = main(
            ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "4", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "cannot fill 4 groups" in capsys.readouterr().err

    @pytest.mark.parametrize("target,code", [("config", 2), ("ood_names", 3), ("embeddings", 3)])
    def test_non_utf8_file_exit(self, tmp_path, capsys, target, code):
        # A Latin-1 config file is a configuration error (train stands in for every command that reads one);
        # a Latin-1 names or embedding file is a data error.
        emb, id_names, ood_names = self.setup_fixture(tmp_path)
        if target == "config":
            bad = tmp_path / "run.cfg"
            bad.write_bytes("# caf\xe9\n[train]\nepochs = 1\n".encode("latin-1"))
            argv = ["train", "--config", str(bad), "--out", str(tmp_path / "m.godn")]
        else:
            bad = {"ood_names": ood_names, "embeddings": emb}[target]
            bad.write_bytes(bad.read_text(encoding="utf-8").replace("mid", "caf\xe9").encode("latin-1"))
            argv = ["splits", "--embeddings", str(emb), "--id-names", str(id_names), "--ood-names", str(ood_names), "--n-groups", "2", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == code
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "m.godn").exists() and not (tmp_path / "s.csv").exists()


HEADER = ",".join(REPORT_FIELDS)


def json_row(**changed) -> bytes:
    """A one-row JSON report, valid but for ``changed``."""
    row = dict(score="g", shift_kind="none", severity=0, auroc=0.5, tnr_at_tpr95=0.5, n_id=10, n_ood=10, seed=0)
    return json.dumps({"rows": [{**row, **changed}]}).encode()


class TestCmdReportMerge:
    def test_the_valid_one_row_reports_read(self, tmp_path):
        (tmp_path / "a.csv").write_text(f"{HEADER}\ng,none,0,0.5,0.5,10,10,0\n", encoding="utf-8")
        (tmp_path / "a.json").write_bytes(json_row())
        assert read_report(tmp_path / "a.csv").rows == read_report(tmp_path / "a.json").rows
        assert read_report(tmp_path / "a.csv").rows[0].n_id == 10

    def test_a_json_integer_rate_reads_as_a_float(self, tmp_path):
        (tmp_path / "a.json").write_bytes(json_row(auroc=1, tnr_at_tpr95=0))
        row = read_report(tmp_path / "a.json").rows[0]
        assert (row.auroc, row.tnr_at_tpr95) == (1.0, 0.0) and type(row.auroc) is float

    def test_merge(self, config_file, trained_checkpoint, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        main(["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(r1)])
        main(["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint), "--out", str(r2), "--seed", "4"])
        merged = tmp_path / "merged.csv"
        code = main(["report-merge", str(r1.with_suffix(".csv")), str(r2.with_suffix(".csv")), "--out", str(merged)])
        assert code == 0
        a = read_report(r1.with_suffix(".csv"))
        b = read_report(r2.with_suffix(".csv"))
        m = read_report(merged)
        assert len(m.rows) == len(a.rows) + len(b.rows)
        assert m.rows[: len(a.rows)] == a.rows

    @pytest.mark.parametrize("seeds,embeds", [((1, 2), False), ((1, 1), True)], ids=["two_runs", "one_run"])
    def test_json_merge_embeds_a_config_only_if_every_input_shares_it(
        self, config_file, trained_checkpoint, tmp_path, seeds, embeds
    ):
        base = ["detect", "--config", str(config_file), "--checkpoint", str(trained_checkpoint)]
        paths = [tmp_path / f"r{i}" for i in range(len(seeds))]
        for path, seed in zip(paths, seeds):
            assert main([*base, "--seed", str(seed), "--out", str(path)]) == 0
        merged = tmp_path / "merged.json"
        assert main(["report-merge", *(str(p.with_suffix(".json")) for p in paths), "--out", str(merged)]) == 0
        doc = json.loads(merged.read_text())
        assert sorted({row["seed"] for row in doc["rows"]}) == sorted(set(seeds))
        first = json.loads(paths[0].with_suffix(".json").read_text())["config"]
        assert doc.get("config") == (first if embeds else None)

    @pytest.mark.parametrize(
        "name,content",
        [
            ("nan.csv", "score,shift_kind,severity,auroc,tnr_at_tpr95,n_id,n_ood,seed\ng,none,0,nan,0.5,10,10,0\n"),
            ("nan.json", '{"rows": [{"score": "g", "shift_kind": "none", "severity": 0, "auroc": NaN, '
                         '"tnr_at_tpr95": 0.5, "n_id": 10, "n_ood": 10, "seed": 0}]}'),
            ("range.csv", "score,shift_kind,severity,auroc,tnr_at_tpr95,n_id,n_ood,seed\ng,none,0,0.5,1.25,10,10,0\n"),
        ],
        ids=["nan_csv", "nan_json", "tnr_above_one_csv"],
    )
    def test_rate_outside_unit_interval_exit_3(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        merged = tmp_path / "merged.json"
        assert main(["report-merge", str(path), "--out", str(merged)]) == 3
        assert str(path) in capsys.readouterr().err
        assert not merged.exists()

    @pytest.mark.parametrize(
        "name,content",
        [
            ("bad.json", b'{"rows": ['),
            ("list.json", b"[1, 2]"),
            ("rows.json", b'{"rows": [1]}'),
            ("latin1.csv", "score,shift_kind\n\xe9\n".encode("latin-1")),
            ("long.csv", f"{HEADER}\ng,none,0,0.5,0.5,10,10,0,7\n".encode()),
            ("short.csv", f"{HEADER}\ng,none,0,0.5,0.5,10,10\n".encode()),
            ("negative.csv", f"{HEADER}\ng,none,0,0.5,0.5,-5,10,0\n".encode()),
            ("float_count.json", json_row(n_id=3.7)),
            ("integral_float.json", json_row(n_ood=10.0)),
            ("string_count.json", json_row(n_id="10")),
            ("bool_severity.json", json_row(severity=True)),
            ("negative.json", json_row(n_id=-5)),
            ("zero.json", json_row(n_ood=0)),
            ("null_score.json", json_row(score=None)),
            ("int_kind.json", json_row(shift_kind=7)),
            ("bool_auroc.json", json_row(auroc=True)),
            ("string_rate.json", json_row(tnr_at_tpr95="0.5")),
            ("missing_score.json", b'{"rows": [{"shift_kind": "none", "severity": 0, "auroc": 0.5, '
                                   b'"tnr_at_tpr95": 0.5, "n_id": 10, "n_ood": 10, "seed": 0}]}'),
        ],
        ids=[
            "invalid_json", "top_level_list", "row_not_object", "not_utf8_csv", "extra_cell_csv", "missing_cell_csv",
            "negative_count_csv", "float_count_json", "integral_float_count_json", "string_count_json",
            "bool_severity_json", "negative_count_json", "zero_count_json", "null_score_json", "int_kind_json",
            "bool_auroc_json", "string_rate_json", "missing_score_json",
        ],
    )
    def test_unreadable_report_exit_3(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        code = main(["report-merge", str(path), "--out", str(tmp_path / "merged.csv")])
        assert code == 3
        assert str(path) in capsys.readouterr().err
