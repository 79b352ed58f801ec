"""One labelled-split contract: every entry point that reads a split's labels rejects a bad label alike.

``train``, ``calibrate`` (its tuning split and an eval split), ``accuracy``,
``split_metrics`` and ``temperature_scale`` read labels through
``train.whole_labels``; each kind of bad label gives one error class at all of
them, and each message names the split it was found in.
"""

import re

import numpy as np
import pytest

from geodin.bench import make_task
from geodin.calibrate import CalibConfig, calibrate, split_metrics, temperature_scale
from geodin.errors import DataError, DomainError
from geodin.head import head_forward_batch
from geodin.train import TrainConfig, accuracy, extract_features, train

K = 3


@pytest.fixture(scope="module")
def task_model():
    task = make_task(K, 4, 30, 0.1, seed=0)
    return task, train(TrainConfig(epochs=2), task.train)


def _logits(model, X):
    return head_forward_batch(extract_features(model, X), model.head).logits


# entry point -> (the task split whose labels it is given, the split's name in messages, call(task, model, X, y))
ENTRY_POINTS = {
    "train": ("train", "train set", lambda t, m, X, y: train(TrainConfig(epochs=1), (X, y), n_classes=K)),
    "calibrate_val": ("val", "split 'val'", lambda t, m, X, y: calibrate(m, (X, y), CalibConfig(folds=0, epochs=1))),
    "calibrate_eval": (
        "test",
        "split 'test'",
        lambda t, m, X, y: calibrate(m, t.val, CalibConfig(folds=0, epochs=1), eval_sets={"test": (X, y)}),
    ),
    "accuracy": ("test", "accuracy split", lambda t, m, X, y: accuracy(m, X, y)),
    "split_metrics": ("test", "labels", lambda t, m, X, y: split_metrics(_logits(m, X), y)),
    "temperature_scale": ("test", "labels", lambda t, m, X, y: temperature_scale(_logits(m, X), y)),
}


def _at_row_1(value):
    return lambda y: np.where(np.arange(len(y)) == 1, value, y)


# kind of bad label -> (labels from the split's labels y, error, message for a split {name} of {n} rows)
BAD_LABELS = {
    "fraction": (_at_row_1(2.5), DataError, "{name} label 1 is not an integer"),
    "nan": (_at_row_1(np.nan), DataError, "{name} label 1 is not an integer"),
    "minus_1": (_at_row_1(-1), IndexError, "{name}: label out of range [0, 3)"),
    "k": (_at_row_1(K), IndexError, "{name}: label out of range [0, 3)"),
    "one_short": (lambda y: y[:-1], DomainError, "{name} has labels of shape ({short},) for its {n} rows"),
    "none": (_at_row_1(None), DataError, "{name} labels are of dtype object, not bool, integer or real floating"),
    "complex": (
        _at_row_1(1 + 0j), DataError, "{name} labels are of dtype complex128, not bool, integer or real floating"
    ),
}
# The calibration metrics check logits and labels as one batch before they read the labels.
SHORT_BATCH = "logits ({n}, 3) and labels ({short},) are not a nonempty (n, k) batch and its n labels"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(BAD_LABELS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_bad_label_gives_one_error_class_everywhere_naming_the_split(task_model, entry, kind):
    task, model = task_model
    split, name, call = ENTRY_POINTS[entry]
    labels, error, message = BAD_LABELS[kind]
    X, y = getattr(task, split)
    if kind == "one_short" and name == "labels":
        message = SHORT_BATCH
    with pytest.raises(error, match=re.escape(message.format(name=name, n=len(y), short=len(y) - 1))):
        call(task, model, X, labels(y))
