"""Shifted-evaluation suites and detection metrics.

Synthetic tasks are Gaussian blobs around random unit prototypes.  Covariate
shift is applied by corruptions with a fixed five-step magnitude ladder;
concept shift comes either from held-out synthetic classes whose prototypes
sit at controlled cosine similarity to the training prototypes, or from real
class-name groups built with word-embedding similarity.  Detection quality is
measured by AUROC (the Mann-Whitney statistic, counted by rank and checked
against a pairwise oracle in the tests) and TNR@TPR95.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DomainError, MissingTokenError, NumericError, StateError
from .scores import SCORE_NAMES, score_batch
from .train import Model, check_seed, extract_features, row_blocks, whole_bits_rows

COVARIATE_KINDS = ("gaussian_noise", "uniform_noise", "feature_dropout", "smoothing")
CONCEPT_KIND = "concept_split"

# Severity s applies magnitude SEVERITY_LADDER[s-1] * KIND_SCALES[kind].
SEVERITY_LADDER = (0.1, 0.2, 0.4, 0.8, 1.6)
KIND_SCALES = {
    "gaussian_noise": 1.0,  # noise std
    "uniform_noise": 1.0,  # half-width of the uniform perturbation
    "feature_dropout": 0.3125,  # drop probability; 0.5 at severity 5
    "smoothing": 0.625,  # blend weight toward the width-3 moving average; 1.0 at severity 5
}
_KIND_CODE = {k: i + 1 for i, k in enumerate(COVARIATE_KINDS)}


@dataclass(frozen=True)
class ShiftSpec:
    """One shifted evaluation: corruption kind + severity, or concept group index.

    Covariate severities run 1..5; ShiftSpec("none", 0) is the no-shift
    control row (clean ID halves against each other).  For concept_split the
    severity field is the group index.
    """

    kind: str
    severity: int

    def __post_init__(self):
        if self.kind in COVARIATE_KINDS:
            if not 1 <= self.severity <= len(SEVERITY_LADDER):
                raise ConfigError(f"{self.kind} severity must be 1..5, got {self.severity}")
        elif self.kind == CONCEPT_KIND:
            if self.severity < 0:
                raise ConfigError(f"concept group index must be >= 0, got {self.severity}")
        elif self.kind == "none":
            if self.severity != 0:
                raise ConfigError("the 'none' control spec must have severity 0")
        else:
            raise ConfigError(f"unknown shift kind {self.kind!r}")


def _split_sizes(n_per_class: int, val_frac: float, test_frac: float) -> tuple[int, int, int]:
    """Per-class (train, val, test) sample counts."""
    n_val, n_test = (int(round(n_per_class * frac)) for frac in (val_frac, test_frac))
    return n_per_class - n_val - n_test, n_val, n_test


@dataclass(frozen=True)
class TaskConfig:
    """A synthetic task and its concept-shift ladder (the ``[task]`` section).

    make_task and make_concept_groups take their defaults from here; the
    ``concept_similarities`` ladder, least similar first, sets the group count.
    """

    k: int = 8
    d_in: int = 16
    n_per_class: int = 400
    noise: float = 0.15
    seed: int = 0
    val_frac: float = 0.2
    test_frac: float = 0.2
    concept_classes_per_group: int = 2
    concept_n_per_class: int = 200
    concept_similarities: tuple = (0.65, 0.72, 0.79, 0.86, 0.92)

    def validate(self) -> None:
        if self.k < 2:
            raise ConfigError(f"need at least 2 classes, got {self.k}")
        if self.d_in < 2:
            raise ConfigError(f"need d_in >= 2, got {self.d_in}")
        if self.n_per_class < 5:
            raise ConfigError(f"need at least 5 samples per class, got {self.n_per_class}")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        check_seed(self.seed)
        fracs = (self.val_frac, self.test_frac)
        if not all(0 < f < 1 for f in fracs) or min(_split_sizes(self.n_per_class, *fracs)) < 1:
            raise ConfigError("split fractions leave an empty split")
        if self.concept_classes_per_group < 1 or self.concept_n_per_class < 1:
            raise ConfigError("a concept group needs at least one class of at least one sample")
        sims = np.asarray(self.concept_similarities, dtype=np.float64)
        if sims.ndim != 1 or not sims.size:
            raise ConfigError(f"need at least one concept group, got concept_similarities of shape {sims.shape}")
        if not np.all((sims >= 0) & (sims < 1)):
            raise ConfigError("concept_similarities must lie in [0, 1)")
        if np.any(np.diff(sims) <= 0):
            raise ConfigError("concept_similarities must be strictly increasing (group 0 least similar)")


@dataclass(frozen=True)
class ShiftsConfig:
    """The detection sweep (the ``[shifts]`` section): every kind at every
    severity, plus the clean control row and one row per concept group."""

    kinds: tuple = COVARIATE_KINDS
    severities: tuple = tuple(range(1, len(SEVERITY_LADDER) + 1))
    scores: tuple = SCORE_NAMES
    include_control: bool = True
    concept: bool = True

    def validate(self) -> None:
        for kind in self.kinds:
            if kind not in COVARIATE_KINDS:
                raise ConfigError(f"unknown shift kind {kind!r}; known: {', '.join(COVARIATE_KINDS)}")
        for s in self.severities:
            if not 1 <= s <= len(SEVERITY_LADDER):
                raise ConfigError(f"severities must be 1..5, got {s}")
        if not (self.include_control or self.concept or (self.kinds and self.severities)):
            raise ConfigError("the sweep is empty: no control, no concept groups and no kind x severity cell")
        if not self.scores:
            raise ConfigError("scores must name at least one score")
        for name in self.scores:
            if name not in SCORE_NAMES:
                raise ConfigError(f"unknown score {name!r}; known: {', '.join(SCORE_NAMES)}")
        for key in ("kinds", "severities", "scores"):
            repeated = [str(v) for v, n in Counter(getattr(self, key)).items() if n > 1]
            if repeated:
                raise ConfigError(f"repeated {key}: {', '.join(repeated)}")

    def specs(self, n_groups: int) -> list[ShiftSpec]:
        """The control, every kind at every severity, then n_groups concept groups."""
        specs = [ShiftSpec("none", 0)] if self.include_control else []
        specs += [ShiftSpec(kind, int(s)) for kind in self.kinds for s in self.severities]
        if self.concept:
            specs += [ShiftSpec(CONCEPT_KIND, gi) for gi in range(n_groups)]
        return specs


@dataclass
class SyntheticTask:
    """Gaussian blobs around unit prototypes, split into train/val/test."""

    k: int
    d_in: int
    noise: float
    seed: int
    prototypes: np.ndarray
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ConceptGroup:
    """Held-out classes at a controlled cosine similarity to the ID prototypes."""

    index: int
    similarity: float
    X: np.ndarray


@dataclass(frozen=True)
class SplitGroup:
    """One embedding-similarity group of held-out class names."""

    index: int
    names: tuple[str, ...]
    similarities: np.ndarray
    mean: float
    std: float


@dataclass(frozen=True)
class ReportRow:
    score: str
    shift_kind: str
    severity: int
    auroc: float
    tnr_at_tpr95: float
    n_id: int
    n_ood: int
    seed: int


@dataclass
class DetectionReport:
    rows: list[ReportRow] = field(default_factory=list)
    config: dict | None = None


def make_task(
    k: int,
    d_in: int,
    n_per_class: int,
    noise: float,
    seed: int,
    val_frac: float = TaskConfig.val_frac,
    test_frac: float = TaskConfig.test_frac,
) -> SyntheticTask:
    """Sample a k-class task; class c is prototype_c + N(0, noise^2 I)."""
    TaskConfig(k, d_in, n_per_class, noise, seed, val_frac, test_frac).validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    prototypes = rng.standard_normal((k, d_in))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    sizes = _split_sizes(n_per_class, val_frac, test_frac)
    X = rng.standard_normal((k, n_per_class, d_in))  # class by class; scaled in place so one copy is live
    X *= noise
    X += prototypes[:, None]
    train, val, test = (
        (part.reshape(-1, d_in), np.repeat(np.arange(k, dtype=np.int64), n))
        for part, n in zip(np.split(X, np.cumsum(sizes[:-1]), axis=1), sizes)
    )
    return SyntheticTask(
        k=k, d_in=d_in, noise=float(noise), seed=int(seed), prototypes=prototypes, train=train, val=val, test=test
    )


def _max_cos(v: np.ndarray, prototypes: np.ndarray) -> float:
    return float((prototypes @ v).max() / np.linalg.norm(v))


def _mixture_direction(base: np.ndarray, anchor: np.ndarray, prototypes: np.ndarray, target: float) -> np.ndarray:
    """Unit direction between base and anchor whose max cosine to the
    prototypes is as close to target as the mixture family allows."""

    def direction(t: float) -> np.ndarray:
        v = (1.0 - t) * base + t * anchor
        return v / np.linalg.norm(v)

    # max-cos falls monotonically from 1 at t=0 toward the anchor's own value.
    if target <= _max_cos(anchor, prototypes):
        return direction(1.0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _max_cos(direction(mid), prototypes) > target:
            lo = mid
        else:
            hi = mid
    return direction(0.5 * (lo + hi))


def make_concept_groups(
    task: SyntheticTask,
    classes_per_group: int = TaskConfig.concept_classes_per_group,
    n_per_class: int = TaskConfig.concept_n_per_class,
    similarities=TaskConfig.concept_similarities,
) -> list[ConceptGroup]:
    """Held-out classes, one group per target in ``similarities``; group 0 is the least similar.

    Held-out prototypes are unit-normalized mixtures of training prototypes:
    each interpolates between one base prototype and the class-centroid
    direction until its largest cosine to any training prototype hits the
    group's target.  The centroid is the ambiguity maximum, so targets below
    its own max-cosine clamp there (the achieved value is recorded in the
    group).  Mixtures stay inside the span of the training classes, so the
    shift is class ambiguity rather than input novelty; samples use the
    task's own noise scale.
    """
    TaskConfig(
        task.k, task.d_in, noise=task.noise, seed=task.seed, concept_classes_per_group=classes_per_group,
        concept_n_per_class=n_per_class, concept_similarities=similarities,
    ).validate()
    rng = np.random.default_rng(np.random.SeedSequence([task.seed, 7]))
    blend = task.prototypes.sum(axis=0)
    blend /= np.linalg.norm(blend)
    groups = []
    for gi, target in enumerate(map(float, similarities)):
        samples = []
        achieved = []
        for _ in range(classes_per_group):
            base = task.prototypes[rng.integers(task.k)]
            proto = _mixture_direction(base, blend, task.prototypes, target)
            achieved.append(_max_cos(proto, task.prototypes))
            samples.append(proto + task.noise * rng.standard_normal((n_per_class, task.d_in)))
        groups.append(
            ConceptGroup(index=gi, similarity=float(np.mean(achieved)), X=np.concatenate(samples))
        )
    return groups


def corrupt(data, spec: ShiftSpec, seed: int):
    """Apply a covariate corruption; labels pass through unchanged.

    Deterministic per (seed, spec): the noise stream is derived from the
    dataset seed, the corruption kind and the severity.
    """
    if spec.kind not in COVARIATE_KINDS:
        raise DomainError(f"corrupt() needs a covariate shift; {spec.kind!r} is not a covariate kind")
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    mag = SEVERITY_LADDER[spec.severity - 1] * KIND_SCALES[spec.kind]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _KIND_CODE[spec.kind], spec.severity]))
    if spec.kind == "gaussian_noise":
        Xc = X + mag * rng.standard_normal(X.shape)
    elif spec.kind == "uniform_noise":
        Xc = X + rng.uniform(-mag, mag, X.shape)
    elif spec.kind == "feature_dropout":
        Xc = np.where(rng.random(X.shape) < mag, 0.0, X)
    else:  # smoothing: blend toward the width-3 moving average, reflect-padded
        padded = np.pad(X, ((0, 0), (1, 1)), mode="reflect")
        box = (padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]) / 3.0
        Xc = (1.0 - mag) * X + mag * box
    return Xc, y


def _resolve_token(name: str, vocab) -> str | None:
    for token in name.lower().replace("_", " ").replace("-", " ").split():
        if token in vocab:
            return token
    return None


def concept_split(id_class_names, ood_class_names, embeddings, n_groups: int) -> list[SplitGroup]:
    """Group held-out class names by embedding similarity to the ID classes.

    Similarity of an OOD class is its largest inner product against any ID
    class.  Classes are ordered by ascending (similarity, name) and chunked;
    the last (highest-index, most similar) group absorbs any remainder.
    A name listed twice, within either list or in both, is a DataError, as is one not in the vocabulary.
    """
    id_names = list(id_class_names)
    ood_names = list(ood_class_names)
    if not id_names:
        raise ConfigError("the list of ID class names is empty")
    if n_groups < 1:
        raise ConfigError(f"need at least one group, got {n_groups}")
    if len(ood_names) < n_groups:
        raise ConfigError(f"{len(ood_names)} classes cannot fill {n_groups} groups")
    names = id_names + ood_names
    repeated = sorted(name for name, n in Counter(names).items() if n > 1)
    if repeated:
        raise DataError("repeated class names: " + ", ".join(repeated))
    vecs = {name: embeddings[tok] for name in names if (tok := _resolve_token(name, embeddings)) is not None}
    missing = [name for name in names if name not in vecs]
    if missing:
        raise MissingTokenError(sorted(missing))
    sims = {name: max(float(vecs[name] @ vecs[i]) for i in id_names) for name in ood_names}

    ordered = sorted(ood_names, key=lambda n: (sims[n], n))
    size = len(ordered) // n_groups
    groups = []
    for gi in range(n_groups):
        chunk = ordered[gi * size :] if gi == n_groups - 1 else ordered[gi * size : (gi + 1) * size]
        vals = np.array([sims[n] for n in chunk])
        groups.append(
            SplitGroup(
                index=gi,
                names=tuple(chunk),
                similarities=vals,
                mean=float(vals.mean()),
                std=float(vals.std()),
            )
        )
    return groups


def _validated_scores(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(id_scores, dtype=np.float64).ravel()
    b = np.asarray(ood_scores, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DomainError("both score sets must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("scores must be finite")
    return a, b


def auroc(id_scores, ood_scores) -> float:
    """AUROC of separating ID (positive, higher score) from OOD.

    The Mann-Whitney statistic P(s_id > s_ood) + 0.5 P(s_id = s_ood),
    counted by rank (Hanley & McNeil 1982): each OOD score is located in
    the sorted ID scores by one left-side search, which counts the ID scores
    below it.  Only the OOD scores that land on an equal ID score take a
    second, right-side search, which counts their ties.  The numerator is an
    exact half-integer count, so the result is the correctly rounded quotient.
    """
    id_s, ood_s = _validated_scores(id_scores, ood_scores)
    id_s = np.sort(id_s)
    # The count does not depend on the order of the queries, and searchsorted
    # runs several times faster on sorted ones.
    ood_s = np.sort(ood_s)
    below = np.searchsorted(id_s, ood_s, side="left")
    tied = id_s[np.minimum(below, id_s.size - 1)] == ood_s  # an OOD score above every ID score ties none
    ties = np.searchsorted(id_s, ood_s[tied], side="right").sum() - below[tied].sum()
    # twice U: 2 #(id > ood) + #(id == ood) = 2 (n_id n_ood - #(id < ood)) - #(id == ood)
    twice_u = int(2 * (id_s.size * ood_s.size - below.sum()) - ties)
    return twice_u / (2 * id_s.size * ood_s.size)


def tnr_at_tpr95(id_scores, ood_scores) -> float:
    """Fraction of OOD rejected at the loosest threshold keeping >= 95% of ID.

    The threshold is the (floor(0.05 n_id) + 1)-th smallest ID score: the
    largest score value t with at least 95% of ID scores >= t (order
    statistic, no interpolation).  Returns the fraction of OOD scores
    strictly below t.
    """
    id_s, ood_s = _validated_scores(id_scores, ood_scores)
    j = int(0.05 * id_s.size) + 1
    t = np.partition(id_s, j - 1)[j - 1]
    return float(np.mean(ood_s < t))


def sweep(
    model: Model,
    task: SyntheticTask,
    score_names,
    specs,
    concept_groups=None,
) -> DetectionReport:
    """AUROC and TNR@TPR95 for every (score, shift spec) cell.

    ID scores come from the clean test split.  The "none" spec compares the
    two halves of the clean test split as a no-shift control.  Only one
    shifted copy of the test split is alive at a time, and each split is
    scored as ``predict`` runs, one block of ``row_blocks`` at a time, so no
    split's features or logits are held whole; every score works per row,
    so the scores are the whole split's bit for bit.

    A ``feature_dropout`` copy starts from the clean split's scores, and a
    block extracts and scores only its rows that differ, bit for bit, from
    their clean test rows, when they number at least ``whole_bits_rows`` of
    the block width (never on a net with a 1-wide product): so they keep the
    block's bits.  Otherwise the block runs whole, as every block of the
    other covariate kinds does uncompared, since they change every row.
    Each block still makes one ``extract_features`` and one ``score_batch``
    call.
    """
    if not model.meta.get("trained"):
        raise StateError("model has not been trained")
    score_names, specs = list(score_names), list(specs)
    ShiftsConfig(scores=tuple(score_names)).validate()
    concept = [spec.severity for spec in specs if spec.kind == CONCEPT_KIND]
    if concept and not concept_groups:
        raise ConfigError("concept_split specs require concept groups")
    if concept and max(concept) >= len(concept_groups):
        raise ConfigError(f"concept group {max(concept)} out of range ({len(concept_groups)} groups)")

    W = model.head.W
    width = min(*model.extractor.dims[1:], model.head.n_classes)
    fewest = whole_bits_rows(width)
    clean = np.asarray(task.test[0], dtype=np.float64)

    def scores(X, reuse: bool = False) -> dict[str, np.ndarray]:
        out = {name: id_all[name].copy() if reuse else np.empty(len(X)) for name in SCORE_NAMES}
        for blk in row_blocks(len(X), width):
            rows, at = X[blk], blk
            if reuse and fewest is not None:  # rows compared bit for bit, so -0.0 is not 0.0
                changed = np.flatnonzero((rows.view(np.uint64) != clean[blk].view(np.uint64)).any(axis=1))
                if fewest <= changed.size < len(rows):
                    rows, at = rows[changed], blk.start + changed
            for name, values in score_batch(extract_features(model, rows), W).items():
                out[name][at] = values
        return out

    id_all = scores(clean)
    report = DetectionReport()
    for spec in specs:
        if spec.kind == "none":
            # class-balanced halves: the test split is ordered by class
            id_sc = {k: v[0::2] for k, v in id_all.items()}
            ood_sc = {k: v[1::2] for k, v in id_all.items()}
        else:
            if spec.kind == CONCEPT_KIND:
                ood_sc = scores(concept_groups[spec.severity].X)
            else:
                ood_sc = scores(corrupt(task.test, spec, task.seed)[0], reuse=spec.kind == "feature_dropout")
            id_sc = id_all
        for name in score_names:
            a, b = id_sc[name], ood_sc[name]
            report.rows.append(
                ReportRow(
                    score=name,
                    shift_kind=spec.kind,
                    severity=spec.severity,
                    auroc=auroc(a, b),
                    tnr_at_tpr95=tnr_at_tpr95(a, b),
                    n_id=a.size,
                    n_ood=b.size,
                    seed=task.seed,
                )
            )
    return report
