"""Golden digests: the commands' output bytes are pinned, not just rerun-equal.

Each digest is the sha256 of a file written by ``geodin.cli.main``.  A change
that alters any of these bytes must re-pin the digest on purpose and say why.
"""

import hashlib

import pytest

from geodin.cli import main

SMALL_CONFIG = """\
[task]
k = 4
d_in = 10
n_per_class = 60
seed = 5
concept_groups = 2
concept_similarities = 0.75, 0.9

[train]
epochs = 4
batch_size = 32
hidden = 12
feature_dim = 6

[calibrate]
epochs = 3
folds = 2

[shifts]
kinds = gaussian_noise, feature_dropout
severities = 1, 4
"""

DEFAULT_TRAIN = "1767bec035af7d5b02c3cc991bb91fa6e886f020745844eb68d8f24f317461f4"
DEFAULT_TRAIN_CONFIG = "b257bfcd905efdf2daa72fcaed554289176cac96d510510eed7b6d3f9799eef3"
DEFAULT_TRAIN_LOG = "2b6c2cd1b29bf434595a4df5870e091708feb8261644da969fee75deb7a1f420"
DEFAULT_DETECT_CSV = "b18178e63dfec75c7600b0c71aa4b27d8fec2e1cdfde207962984626fa871698"
DEFAULT_DETECT_JSON = "c6edf091086ee5dfed84f6946ace3dde13667c2aca538050c86f57e9258baf1e"

SMALL_TRAIN = {
    ("vanilla", True):
        "d816891b5890def7fc3f3dd168ac8a3ddb746097a7c19601e54957781faa6035",
    ("vanilla", False):
        "d816891b5890def7fc3f3dd168ac8a3ddb746097a7c19601e54957781faa6035",
    ("alpha_only", True):
        "97a14ab996f49d07010768516f67d26c1b0168b1eff0e5eb6752e23225bbe44c",
    ("alpha_only", False):
        "0c41400ce78ac78699ad8884e03726753f8460cb06665554076aecac36028ad2",
    ("beta_only", True):
        "2018986436204450ce2abde17b7c9b7e254908adb0f378fc8ff19dc5cd2723df",
    ("beta_only", False):
        "66f2e33b3d45a32d8269e45304ceb3c532ba10b805f00b9843689623223e7018",
    ("alpha_beta", True):
        "a18b557194af10adcfcc54ca383cdf35659a8b7f2d8ff5ceb17095252b0a9ebb",
    ("alpha_beta", False):
        "3e92dedc7e34f0c6f711a404f4a4fd75fd157676e65c80b3e5225fa7c2c737a6",
}

SMALL_TRAIN_CONFIG = "c6e9702b8b5b0eb328927d215951ae2b70aaf2b465862de25d7773f935c5ffb1"
SMALL_TRAIN_LOG = "829179681c62da5e23bef3734dee844be9abb341ea4503f012fe9857ab9badd7"

SMALL_DETECT_CSV = "8a1c363bddd369c8d48ddad7f1f44ba737458ef1014819f48e81e93441a728c8"
SMALL_DETECT_JSON = "ab3fa761a9cf5acb3d6f87247b929c0cf549c12526efe2b0f7fe95542d10e23f"
SMALL_CALIBRATE_CHECKPOINT = "b9f541d0204212eb0cf616786adef094cb89e48580ddd049284f5a07076b4827"
SMALL_CALIBRATE_REPORT = "14e2a77652ce2df81992fa83d234a2dec793ca1f6a24ec6226404d7fb6f54d54"

# 204 validation rows (4 classes x 51): the main run tunes on batches of 64, 64, 64 and 12,
# and five folds tune on 163 rows (a stack of four) and 164 rows (a stack of one), ending
# on batches of 35 and 36.
STACKED_CALIBRATE = ["--set", "task.n_per_class=253", "--set", "calibrate.folds=5"]
STACKED_CALIBRATE_CHECKPOINT = "5b8453e7af9865db64d317671c9183513511ce3b19526cac43dff80ef9cc6516"
STACKED_CALIBRATE_REPORT = "c4fb99eaee2c7b0900e4b39d0fda5c81322e3ede07fa9775018f8cba62199920"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fingerprint") / "small.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def small_checkpoint(small_config):
    out = small_config.parent / "model.godn"
    assert main(["train", "--config", str(small_config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("default") / "model.godn"
    assert main(["train", "--out", str(out)]) == 0
    return out


def test_default_train_checkpoint(default_checkpoint):
    assert sha256(default_checkpoint) == DEFAULT_TRAIN
    assert sha256(default_checkpoint.parent / "model.config.json") == DEFAULT_TRAIN_CONFIG
    assert sha256(default_checkpoint.parent / "model.train_log.csv") == DEFAULT_TRAIN_LOG


def test_default_detect_report(default_checkpoint, tmp_path):
    out = tmp_path / "report"
    assert main(["detect", "--checkpoint", str(default_checkpoint), "--out", str(out)]) == 0
    assert sha256(out.with_suffix(".csv")) == DEFAULT_DETECT_CSV
    assert sha256(out.with_suffix(".json")) == DEFAULT_DETECT_JSON


@pytest.mark.parametrize("variant,decay_heads", sorted(SMALL_TRAIN))
def test_small_train_checkpoint(small_config, tmp_path, variant, decay_heads):
    out = tmp_path / "model.godn"
    overrides = ["--set", f"train.variant={variant}", "--set", f"train.decay_heads={str(decay_heads).lower()}"]
    assert main(["train", "--config", str(small_config), *overrides, "--out", str(out)]) == 0
    assert sha256(out) == SMALL_TRAIN[variant, decay_heads]


def test_small_train_sidecars(small_checkpoint):
    assert sha256(small_checkpoint.parent / "model.config.json") == SMALL_TRAIN_CONFIG
    assert sha256(small_checkpoint.parent / "model.train_log.csv") == SMALL_TRAIN_LOG


def test_small_detect_report(small_config, small_checkpoint, tmp_path):
    out = tmp_path / "report"
    assert main(["detect", "--config", str(small_config), "--checkpoint", str(small_checkpoint), "--out", str(out)]) == 0
    assert sha256(out.with_suffix(".csv")) == SMALL_DETECT_CSV
    assert sha256(out.with_suffix(".json")) == SMALL_DETECT_JSON


def test_small_calibrate_outputs(small_config, small_checkpoint, tmp_path):
    out = tmp_path / "calibrated.godn"
    assert main(["calibrate", "--config", str(small_config), "--checkpoint", str(small_checkpoint), "--out", str(out)]) == 0
    assert sha256(out) == SMALL_CALIBRATE_CHECKPOINT
    assert sha256(tmp_path / "calibrated.calibration.json") == SMALL_CALIBRATE_REPORT


def test_stacked_calibrate_outputs(small_config, small_checkpoint, tmp_path):
    out = tmp_path / "calibrated.godn"
    argv = ["calibrate", "--config", str(small_config), *STACKED_CALIBRATE, "--checkpoint", str(small_checkpoint)]
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out) == STACKED_CALIBRATE_CHECKPOINT
    assert sha256(tmp_path / "calibrated.calibration.json") == STACKED_CALIBRATE_REPORT
