"""Benchmark tests: task construction, corruptions, metrics, splits, sweeps."""

import dataclasses
import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from geodin.bench import (
    COVARIATE_KINDS,
    KIND_SCALES,
    SEVERITY_LADDER,
    ConceptGroup,
    ShiftsConfig,
    ShiftSpec,
    auroc,
    concept_split,
    corrupt,
    make_concept_groups,
    make_task,
    sweep,
    tnr_at_tpr95,
)
from geodin.config import RunConfig
from geodin.errors import ConfigError, DomainError, MissingTokenError, NumericError, StateError
from geodin.train import TrainConfig, init_model, row_blocks, train, whole_bits_rows

import oracles
from trends import adjacent_drops

bench_module = importlib.import_module("geodin.bench")


class TestMakeTask:
    def test_zero_noise_samples_equal_prototype(self):
        task = make_task(3, 8, 10, 0.0, seed=0)
        X, y = task.train
        for c in range(3):
            np.testing.assert_array_equal(X[y == c], np.tile(task.prototypes[c], (X[y == c].shape[0], 1)))

    def test_same_seed_identical(self):
        a = make_task(4, 6, 20, 0.3, seed=5)
        b = make_task(4, 6, 20, 0.3, seed=5)
        assert a.train[0].tobytes() == b.train[0].tobytes()
        assert a.test[0].tobytes() == b.test[0].tobytes()

    def test_prototypes_unit_norm(self):
        task = make_task(5, 12, 10, 0.1, seed=1)
        np.testing.assert_allclose(np.linalg.norm(task.prototypes, axis=1), 1.0, atol=1e-12)

    def test_split_sizes(self):
        task = make_task(3, 4, 50, 0.1, seed=2)
        assert task.train[0].shape[0] == 3 * 30
        assert task.val[0].shape[0] == 3 * 10
        assert task.test[0].shape[0] == 3 * 10

    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            make_task(1, 4, 50, 0.1, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            make_task(3, 4, 50, 0.1, seed=-1)

    def test_prototype_angles_match_random_unit_expectation(self):
        # Monte Carlo oracle: random unit vectors in high dimension are
        # near-orthogonal in expectation, sd of pairwise cos is ~1/sqrt(d).
        task = make_task(40, 400, 5, 0.0, seed=3)
        P = task.prototypes
        cosines = (P @ P.T)[np.triu_indices(40, k=1)]
        assert abs(cosines.mean()) < 3.0 / math.sqrt(400)
        assert abs(cosines.std() - 1.0 / math.sqrt(400)) < 0.02


class TestCorrupt:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.X = rng.uniform(0.5, 1.5, (2000, 16))
        self.y = rng.integers(0, 4, 2000)

    @pytest.mark.parametrize("kind", ["gaussian_noise", "uniform_noise", "feature_dropout", "smoothing"])
    def test_perturbation_grows_with_severity(self, kind):
        sizes = []
        for s in range(1, 6):
            Xc, _ = corrupt((self.X, self.y), ShiftSpec(kind, s), seed=0)
            sizes.append(np.linalg.norm(Xc - self.X, axis=1).mean())
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_labels_pass_through(self):
        _, y = corrupt((self.X, self.y), ShiftSpec("gaussian_noise", 1), seed=0)
        assert y is self.y

    def test_deterministic(self):
        a, _ = corrupt((self.X, self.y), ShiftSpec("uniform_noise", 3), seed=4)
        b, _ = corrupt((self.X, self.y), ShiftSpec("uniform_noise", 3), seed=4)
        assert a.tobytes() == b.tobytes()
        c, _ = corrupt((self.X, self.y), ShiftSpec("uniform_noise", 3), seed=5)
        assert a.tobytes() != c.tobytes()

    def test_gaussian_chi_moment(self):
        # E||delta||_2 ~= sigma * sqrt(d) for gaussian noise (chi mean).
        rng = np.random.default_rng(8)
        X = rng.uniform(0.5, 1.5, (10_000, 16))
        spec = ShiftSpec("gaussian_noise", 4)
        sigma = SEVERITY_LADDER[3] * KIND_SCALES["gaussian_noise"]
        Xc, _ = corrupt((X, None), spec, seed=1)
        measured = np.linalg.norm(Xc - X, axis=1).mean()
        assert abs(measured - sigma * math.sqrt(16)) / (sigma * math.sqrt(16)) < 0.05

    def test_dropout_mask_rate(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.5, 1.5, (10_000, 16))
        Xc, _ = corrupt((X, None), ShiftSpec("feature_dropout", 5), seed=2)
        rate = np.mean(Xc == 0.0)
        assert abs(rate - 0.5) < 0.01

    def test_smoothing_deterministic_no_rng(self):
        Xc1, _ = corrupt((self.X, self.y), ShiftSpec("smoothing", 2), seed=0)
        Xc2, _ = corrupt((self.X, self.y), ShiftSpec("smoothing", 2), seed=99)
        assert Xc1.tobytes() == Xc2.tobytes()  # smoothing draws no noise

    def test_concept_kind_rejected(self):
        with pytest.raises(DomainError, match="'concept_split' is not a covariate kind"):
            corrupt((self.X, self.y), ShiftSpec("concept_split", 1), seed=0)

    def test_control_kind_rejected(self):
        with pytest.raises(DomainError, match="'none' is not a covariate kind"):
            corrupt((self.X, self.y), ShiftSpec("none", 0), seed=0)

    def test_severity_zero_rejected(self):
        # ShiftSpec("none", 0) is the one spelling of the control row.
        with pytest.raises(ConfigError, match="gaussian_noise severity must be 1..5, got 0"):
            ShiftSpec("gaussian_noise", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ShiftSpec("salt_and_pepper", 1)

    @pytest.mark.parametrize(
        "kind,severity,message",
        [
            ("concept_split", -1, "concept group index must be >= 0, got -1"),
            ("none", 1, "the 'none' control spec must have severity 0"),
        ],
        ids=["negative_group", "shifted_control"],
    )
    def test_severity_outside_its_kind_rejected(self, kind, severity, message):
        with pytest.raises(ConfigError, match=message):
            ShiftSpec(kind, severity)


class TestConceptGroups:
    def test_similarity_ladder_monotone(self):
        task = make_task(8, 16, 40, 0.15, seed=11)
        groups = make_concept_groups(task, 2, 30)
        sims = [g.similarity for g in groups]
        assert all(a <= b for a, b in zip(sims, sims[1:]))
        assert all(isinstance(g, ConceptGroup) for g in groups)

    def test_targets_achieved(self):
        task = make_task(8, 16, 40, 0.15, seed=12)
        targets = (0.75, 0.85, 0.92)
        groups = make_concept_groups(task, 3, 20, targets)
        for g, t in zip(groups, targets):
            assert abs(g.similarity - t) < 0.02

    def test_targets_below_floor_clamp_at_centroid(self):
        task = make_task(8, 16, 40, 0.15, seed=12)
        blend = task.prototypes.sum(axis=0)
        blend /= np.linalg.norm(blend)
        floor = float((task.prototypes @ blend).max())
        groups = make_concept_groups(task, 2, 10, (0.1, 0.2))
        for g in groups:
            assert g.similarity == pytest.approx(floor, abs=1e-9)

    def test_shapes_and_determinism(self):
        task = make_task(6, 12, 40, 0.15, seed=13)
        ladder = (0.65, 0.74, 0.83, 0.92)
        a = make_concept_groups(task, 2, 25, ladder)
        b = make_concept_groups(task, 2, 25, ladder)
        for ga, gb in zip(a, b):
            assert ga.X.shape == (50, 12)
            assert ga.X.tobytes() == gb.X.tobytes()

    def test_decreasing_similarities_rejected(self):
        task = make_task(4, 8, 40, 0.15, seed=14)
        with pytest.raises(ConfigError):
            make_concept_groups(task, 2, 10, (0.9, 0.5))

    def test_default_ladder_is_the_run_config_ladder(self):
        task = make_task(4, 8, 40, 0.15, seed=14)
        ladder = RunConfig().task.concept_similarities
        for a, b in zip(make_concept_groups(task), make_concept_groups(task, 2, 200, ladder), strict=True):
            assert a.X.tobytes() == b.X.tobytes()


class TestConceptSplit:
    def embeddings(self):
        return {
            "cat": np.array([1.0, 0.0]),
            "near": np.array([0.9, 0.1]),
            "mid": np.array([0.5, 0.2]),
            "far": np.array([0.1, 0.3]),
            "pickup": np.array([0.7, 0.0]),
        }

    def test_hand_sorted_groups(self):
        groups = concept_split(["cat"], ["near", "mid", "far"], self.embeddings(), 3)
        assert [g.names for g in groups] == [("far",), ("mid",), ("near",)]
        assert groups[0].mean == pytest.approx(0.1)
        assert groups[2].mean == pytest.approx(0.9)

    def test_equal_similarities_lexicographic(self):
        emb = {"id": np.array([1.0]), "b": np.array([0.5]), "a": np.array([0.5]), "c": np.array([0.5])}
        groups = concept_split(["id"], ["b", "a", "c"], emb, 3)
        assert [g.names for g in groups] == [("a",), ("b",), ("c",)]

    def test_remainder_goes_to_last_group(self):
        emb = {str(i): np.array([float(i)]) for i in range(8)}
        emb["id"] = np.array([1.0])
        groups = concept_split(["id"], [str(i) for i in range(7)], emb, 3)
        assert [len(g.names) for g in groups] == [2, 2, 3]
        assert groups[-1].names == ("4", "5", "6")

    def test_multiword_resolution(self):
        groups = concept_split(["cat"], ["pickup truck"], self.embeddings(), 1)
        assert groups[0].names == ("pickup truck",)
        assert groups[0].mean == pytest.approx(0.7)

    def test_missing_tokens_listed(self):
        with pytest.raises(MissingTokenError) as err:
            concept_split(["cat"], ["unicorn", "near", "dragon"], self.embeddings(), 1)
        assert err.value.tokens == ["dragon", "unicorn"]

    def test_empty_id_list_rejected(self):
        with pytest.raises(ConfigError, match="ID class names is empty"):
            concept_split([], ["near", "mid"], self.embeddings(), 1)

    def test_partition_covers_all_classes(self):
        rng = np.random.default_rng(15)
        emb = {f"c{i}": rng.normal(0.0, 1.0, 4) for i in range(30)}
        emb["base"] = rng.normal(0.0, 1.0, 4)
        names = [f"c{i}" for i in range(30)]
        groups = concept_split(["base"], names, emb, 10)
        seen = [n for g in groups for n in g.names]
        assert sorted(seen) == sorted(names)
        assert len(seen) == len(set(seen))


def pairwise_auroc(id_s, ood_s):
    """O(n^2) Mann-Whitney oracle."""
    id_s = np.asarray(id_s)[:, None]
    ood_s = np.asarray(ood_s)[None, :]
    return float(np.mean((id_s > ood_s) + 0.5 * (id_s == ood_s)))


class TestAuroc:
    def test_fully_separated(self):
        assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_identical_multisets(self):
        assert auroc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n1, n2 = rng.integers(10, 500, 2)
            id_s = rng.normal(1.0, 1.0, n1)
            ood_s = rng.normal(0.0, 1.0, n2)
            assert abs(auroc(id_s, ood_s) - pairwise_auroc(id_s, ood_s)) < 1e-9

    def test_matches_pairwise_oracle_at_size_2000(self):
        rng = np.random.default_rng(26)
        id_s = rng.normal(0.5, 1.0, 2000)
        ood_s = rng.normal(0.0, 1.0, 2000)
        assert abs(auroc(id_s, ood_s) - pairwise_auroc(id_s, ood_s)) < 1e-9

    def test_tied_integer_scores(self):
        rng = np.random.default_rng(17)
        id_s = rng.integers(0, 5, 300).astype(float)
        ood_s = rng.integers(0, 5, 200).astype(float)
        assert abs(auroc(id_s, ood_s) - pairwise_auroc(id_s, ood_s)) < 1e-9

    @pytest.mark.parametrize("kind", ["integer", "tie_heavy_real"])
    def test_exact_mann_whitney_fraction(self, kind):
        # U = #(id > ood) + 0.5 #(id == ood) is a half-integer, so the exact
        # AUROC is the correctly rounded float of U / (n_id n_ood).
        rng = np.random.default_rng(27)
        for _ in range(20):
            n1, n2 = rng.integers(5, 400, 2)
            if kind == "integer":
                id_s = rng.integers(0, 6, n1).astype(float)
                ood_s = rng.integers(0, 6, n2).astype(float)
            else:
                id_s = np.round(rng.normal(0.3, 1.0, n1), 1)
                ood_s = np.round(rng.normal(0.0, 1.0, n2), 1)
            gt = int(np.sum(id_s[:, None] > ood_s[None, :]))
            eq = int(np.sum(id_s[:, None] == ood_s[None, :]))
            assert auroc(id_s, ood_s) == float(Fraction(2 * gt + eq, 2 * n1 * n2))

    @pytest.mark.parametrize("kind", ["integer", "msp_like"])
    def test_one_search_matches_two_searches_on_ties(self, kind):
        # msp saturates at 1.0, so most of its ties sit at the top of both score sets.
        rng = np.random.default_rng(29)
        for _ in range(30):
            n1, n2 = rng.integers(1, 400, 2)
            if kind == "integer":
                id_s, ood_s = rng.integers(0, 6, n1).astype(float), rng.integers(-1, 8, n2).astype(float)
            else:
                id_s = np.minimum(rng.uniform(0.6, 1.4, n1), 1.0)
                ood_s = np.minimum(rng.uniform(0.2, 1.2, n2), 1.0)
            assert auroc(id_s, ood_s) == oracles.two_search_auroc(id_s, ood_s)
            assert abs(auroc(id_s, ood_s) - pairwise_auroc(id_s, ood_s)) < 1e-12

    def test_ood_scores_above_every_id_score(self):
        assert auroc([1.0], [1.0, 2.0, 3.0]) == 1 / 6 == oracles.two_search_auroc([1.0], [1.0, 2.0, 3.0])
        assert auroc([0.0, 1.0], [1.0, 1.0]) == 0.25

    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        id_s = rng.normal(1.0, 1.0, 100)
        ood_s = rng.normal(0.0, 1.0, 80)
        a = auroc(id_s, ood_s)
        b = auroc(rng.permutation(id_s), rng.permutation(ood_s))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            auroc([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            auroc([bad, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(NumericError):
            auroc([1.0, 2.0], [0.0, bad])


class TestTnrAtTpr95:
    def test_fully_separated(self):
        assert tnr_at_tpr95(np.arange(100) + 10.0, np.arange(50) - 100.0) == 1.0

    def test_hand_case(self):
        id_s = np.arange(1.0, 21.0)  # 1..20
        ood_s = np.array([0.5, 1.5])
        # largest t with >=95% of ID >= t is the 2nd smallest ID score (2.0);
        # both OOD scores are < 2.0.
        assert tnr_at_tpr95(id_s, ood_s) == 1.0

    def test_same_distribution_rate(self):
        rng = np.random.default_rng(19)
        id_s = rng.normal(0.0, 1.0, 100_000)
        ood_s = rng.normal(0.0, 1.0, 100_000)
        assert abs(tnr_at_tpr95(id_s, ood_s) - 0.05) <= 0.01

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        id_s = rng.normal(0.0, 1.0, 500)
        ood_s = rng.normal(0.0, 1.0, 400)
        assert tnr_at_tpr95(id_s, ood_s) == tnr_at_tpr95(rng.permutation(id_s), rng.permutation(ood_s))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            tnr_at_tpr95([1.0], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            tnr_at_tpr95(np.append(np.arange(20.0), bad), [0.5])
        with pytest.raises(NumericError):
            tnr_at_tpr95(np.arange(20.0), [bad])


@pytest.fixture(scope="module")
def small_trained():
    task = make_task(4, 10, 100, 0.15, seed=31)
    model = train(TrainConfig(epochs=20, seed=31, hidden=(24,), feature_dim=8), task.train, n_classes=4)
    return task, model


class TestSweep:
    def test_control_row_near_half(self):
        # Enough control samples that the +-0.03 band is several sigma wide.
        task = make_task(4, 10, 1200, 0.15, seed=31, val_frac=0.1, test_frac=0.5)
        model = train(TrainConfig(epochs=10, seed=31, hidden=(24,), feature_dim=8), task.train, n_classes=4)
        report = sweep(model, task, ["g", "h", "u", "msp", "energy"], [ShiftSpec("none", 0)])
        for row in report.rows:
            assert abs(row.auroc - 0.5) <= 0.03
            assert abs(row.tnr_at_tpr95 - 0.05) <= 0.03

    def test_row_cardinality_and_order(self, small_trained):
        task, model = small_trained
        specs = [ShiftSpec("gaussian_noise", s) for s in range(1, 6)]
        report = sweep(model, task, ["g", "h"], specs)
        assert len(report.rows) == 10
        assert [r.severity for r in report.rows if r.score == "g"] == [1, 2, 3, 4, 5]
        assert all(r.n_id == task.test[0].shape[0] for r in report.rows)

    def test_concept_specs_need_groups(self, small_trained):
        task, model = small_trained
        with pytest.raises(ConfigError):
            sweep(model, task, ["g"], [ShiftSpec("concept_split", 0)])

    @pytest.mark.parametrize("with_groups", [False, True], ids=["no_groups", "group_out_of_range"])
    def test_concept_specs_checked_before_any_extraction(self, monkeypatch, small_trained, with_groups):
        task, model = small_trained
        groups = make_concept_groups(task, 2, 40, (0.65, 0.785, 0.92)) if with_groups else None
        rows = _extracted_rows(monkeypatch)
        with pytest.raises(ConfigError, match="concept"):
            sweep(model, task, ["g"], [ShiftSpec("gaussian_noise", 1), ShiftSpec("concept_split", 9)], groups)
        assert rows == []

    def test_untrained_model_rejected(self, small_trained):
        task, _ = small_trained
        fresh = init_model(TrainConfig(hidden=(24,), feature_dim=8, seed=0), d_in=10, n_classes=4)
        with pytest.raises(StateError):
            sweep(fresh, task, ["g"], [ShiftSpec("none", 0)])

    def test_nan_weight_raises_numeric_error(self, small_trained):
        task, model = small_trained
        broken = model.like(model.flat.copy())
        broken.extractor.layers[0][0][0, 0] = np.nan
        with pytest.raises(NumericError):
            sweep(broken, task, ["g"], [ShiftSpec("none", 0)])

    def test_unknown_score_rejected(self, small_trained):
        task, model = small_trained
        with pytest.raises(ConfigError):
            sweep(model, task, ["mahalanobis"], [ShiftSpec("none", 0)])

    def test_repeated_score_rejected(self, small_trained):
        task, model = small_trained
        with pytest.raises(ConfigError, match="repeated scores: g"):
            sweep(model, task, ["g", "g"], [ShiftSpec("none", 0)])

    def test_deterministic(self, small_trained):
        task, model = small_trained
        specs = [ShiftSpec("gaussian_noise", s) for s in (1, 3, 5)] + [ShiftSpec("none", 0)]
        a = sweep(model, task, ["g", "u"], specs)
        b = sweep(model, task, ["g", "u"], specs)
        assert a.rows == b.rows

    def test_concept_group_rows(self, small_trained):
        task, model = small_trained
        groups = make_concept_groups(task, 2, 40, (0.65, 0.785, 0.92))
        report = sweep(model, task, ["h"], [ShiftSpec("concept_split", i) for i in range(3)], groups)
        assert [r.severity for r in report.rows] == [0, 1, 2]
        assert all(r.n_ood == 80 for r in report.rows)


STREAM_B = 768  # rows per block of row_blocks for products 2 wide
STREAM_SPECS = [
    ShiftSpec("none", 0),
    *(ShiftSpec(kind, s) for kind, s in zip(COVARIATE_KINDS, (2, 1, 4, 5))),
    *(ShiftSpec("concept_split", i) for i in range(2)),
]


def _scored(monkeypatch, module, run):
    """run()'s result and the bytes of every (ID, OOD) score pair it passed to ``module.auroc``."""
    seen, real = [], module.auroc

    def recording(a, b):
        seen.append((a.tobytes(), b.tobytes()))
        return real(a, b)

    monkeypatch.setattr(module, "auroc", recording)
    return run(), seen


def _extracted_rows(monkeypatch) -> list[int]:
    """The row count of every ``extract_features`` call that ``bench`` makes from now on."""
    rows, real = [], bench_module.extract_features
    monkeypatch.setattr(bench_module, "extract_features", lambda model, X: rows.append(len(X)) or real(model, X))
    return rows


class TestStreamedSweep:
    @pytest.mark.parametrize("rows", [STREAM_B - 1, STREAM_B, STREAM_B + 1, 3 * STREAM_B + 5])
    @pytest.mark.parametrize("hidden,k", [((64, 64), 2), ((64, 1), 3)], ids=["narrowest-2", "1-wide-layer"])
    def test_matches_the_one_shot_sweep(self, monkeypatch, hidden, k, rows):
        # With k = 2 the products are 2 wide, so a split of 3B+5 rows is scored in three blocks; the
        # logits of 512 rows of 32 features would take another kernel.  With a 1-wide layer every
        # split is one block.
        model = init_model(TrainConfig(hidden=hidden, feature_dim=32, seed=rows), d_in=6, n_classes=k)
        for _, b in model.extractor.layers:
            b += 0.2  # keeps the 1-wide layer's unit alive on most rows
        rng = np.random.default_rng(rows)
        model.head.W[:] = rng.normal(0.0, 1.0, model.head.W.shape)
        model.meta["trained"] = True
        test = (rng.normal(0.0, 1.0, (rows, 6)), np.zeros(rows, dtype=np.int64))
        task = dataclasses.replace(make_task(k, 6, 20, 0.3, seed=rows), test=test)
        groups = [ConceptGroup(i, 0.5, rng.normal(0.0, 1.0, (n, 6))) for i, n in enumerate((STREAM_B + 1, 2 * STREAM_B))]
        width = min(*model.extractor.dims[1:], k)
        assert len(row_blocks(rows, width)) == (3 if width == 2 and rows > 2 * STREAM_B else 1)
        names = ["g", "h", "u", "msp", "energy"]
        streamed, streamed_scores = _scored(
            monkeypatch, bench_module, lambda: sweep(model, task, names, STREAM_SPECS, groups)
        )
        one_shot, one_shot_scores = _scored(
            monkeypatch, oracles, lambda: oracles.reference_sweep(model, task, names, STREAM_SPECS, groups)
        )
        assert streamed.rows == one_shot.rows
        assert len(streamed_scores) == len(STREAM_SPECS) * len(names)
        assert streamed_scores == one_shot_scores

    @pytest.mark.parametrize("hidden", [(64, 64), (64, 1)], ids=["narrowest-4", "1-wide-layer"])
    def test_a_shifted_block_extracts_only_its_changed_rows(self, monkeypatch, hidden):
        # k = 4 makes the blocks 512 rows and the subset threshold ceil(1536 / 4) = 384 rows.  The clean
        # split's zero rows are left as they are by feature_dropout, and at severity 5 (p = 0.5) over 24
        # inputs every other row changes, so its three blocks change 383, 384 and all 517 rows: whole,
        # subset, whole.  Severity 1 changes fewer than 384 rows of a block, so each block runs whole.
        B, fewest = 512, whole_bits_rows(4)
        assert row_blocks(3 * B + 5, 4) == [slice(0, B), slice(B, 2 * B), slice(2 * B, 3 * B + 5)]
        model = init_model(TrainConfig(hidden=hidden, feature_dim=32, seed=3), d_in=24, n_classes=4)
        for _, b in model.extractor.layers:
            b += 0.2  # keeps the 1-wide layer's unit alive on most rows
        rng = np.random.default_rng(3)
        model.head.W[:] = rng.normal(0.0, 1.0, model.head.W.shape)
        model.meta["trained"] = True
        X = np.zeros((3 * B + 5, 24))
        for blk, live in zip(row_blocks(len(X), 4), (fewest - 1, fewest, B + 5)):
            X[blk.start + rng.choice(blk.stop - blk.start, size=live, replace=False)] = rng.normal(0.0, 1.0, (live, 24))
        task = dataclasses.replace(make_task(4, 24, 20, 0.3, seed=3), test=(X, np.zeros(len(X), dtype=np.int64)))
        specs = [ShiftSpec("feature_dropout", 5), ShiftSpec("feature_dropout", 1), ShiftSpec("gaussian_noise", 2)]
        shifted = corrupt(task.test, specs[0], task.seed)[0]
        assert [int((shifted[blk] != X[blk]).any(axis=1).sum()) for blk in row_blocks(len(X), 4)] == [383, 384, 517]

        rows = _extracted_rows(monkeypatch)
        names = ["g", "h", "u", "msp", "energy"]
        streamed, streamed_scores = _scored(monkeypatch, bench_module, lambda: sweep(model, task, names, specs))
        one_shot, one_shot_scores = _scored(
            monkeypatch, oracles, lambda: oracles.reference_sweep(model, task, names, specs)
        )
        assert streamed.rows == one_shot.rows
        assert streamed_scores == one_shot_scores
        if hidden[-1] == 1:
            assert rows == [len(X)] * 4  # a net with a 1-wide product runs every split whole
        else:
            # the clean split, then severity 5's subset in its middle block, then severity 1 and the noise
            assert rows == [B, B, B + 5] + [B, fewest, B + 5] + [B, B, B + 5] * 2

    def test_blocks_of_the_other_covariate_kinds_run_whole(self, monkeypatch):
        # Only feature_dropout's blocks are compared with the clean split's.  Smoothing leaves this
        # split's zero rows as they are and changes its `fewest` live rows per block, which would clear
        # the subset threshold; its blocks, like those of both noises, still run whole.
        B, fewest = 512, whole_bits_rows(4)
        model = init_model(TrainConfig(hidden=(64, 64), feature_dim=32, seed=5), d_in=24, n_classes=4)
        rng = np.random.default_rng(5)
        model.head.W[:] = rng.normal(0.0, 1.0, model.head.W.shape)
        model.meta["trained"] = True
        X = np.zeros((3 * B + 5, 24))
        for blk in row_blocks(len(X), 4):
            live = blk.start + rng.choice(blk.stop - blk.start, size=fewest, replace=False)
            X[live] = rng.normal(0.0, 1.0, (fewest, 24))
        task = dataclasses.replace(make_task(4, 24, 20, 0.3, seed=5), test=(X, np.zeros(len(X), dtype=np.int64)))
        specs = [ShiftSpec(kind, 3) for kind in COVARIATE_KINDS if kind != "feature_dropout"]
        smoothed = corrupt(task.test, ShiftSpec("smoothing", 3), task.seed)[0]
        assert [int((smoothed[blk] != X[blk]).any(axis=1).sum()) for blk in row_blocks(len(X), 4)] == [fewest] * 3

        rows = _extracted_rows(monkeypatch)
        names = ["g", "h", "u", "msp", "energy"]
        streamed, streamed_scores = _scored(monkeypatch, bench_module, lambda: sweep(model, task, names, specs))
        one_shot, one_shot_scores = _scored(
            monkeypatch, oracles, lambda: oracles.reference_sweep(model, task, names, specs)
        )
        assert streamed.rows == one_shot.rows
        assert streamed_scores == one_shot_scores
        assert rows == [B, B, B + 5] * (1 + len(specs))  # the clean split, then each kind's copy, block by block

    def test_the_wide_sweep_extracts_every_row_but_the_untouched_ones(self, monkeypatch):
        # The wide benchmark net (width 32, so 48 changed rows clear a block) on its 2560-row test split:
        # the clean split, 20 shifted copies and 5 concept groups of 400 rows are 55,760 rows in 110 blocks.
        model = init_model(TrainConfig(hidden=(256, 256), feature_dim=64, seed=2), d_in=16, n_classes=32)
        model.meta["trained"] = True
        task = make_task(32, 16, 400, 0.15, seed=0)
        groups = make_concept_groups(task)
        specs = ShiftsConfig().specs(len(groups))
        untouched = sum(
            int((corrupt(task.test, spec, task.seed)[0] == task.test[0]).all(axis=1).sum())
            for spec in specs if spec.kind in COVARIATE_KINDS
        )
        assert untouched == 2730
        rows = _extracted_rows(monkeypatch)
        sweep(model, task, ShiftsConfig.scores, specs, groups)
        assert (len(rows), sum(rows)) == (110, 55_760 - untouched)

    def test_a_wide_net_holds_no_whole_split_features_or_logits(self):
        # The wide benchmark net over its 2560-row test split: the split's features and their squares
        # alone take 1.25 MiB each, its logits 0.62 MiB; block by block the sweep peaks near 3.0 MiB.
        model = init_model(TrainConfig(hidden=(256, 256), feature_dim=64, seed=2), d_in=16, n_classes=32)
        model.meta["trained"] = True
        task = make_task(32, 16, 400, 0.15, seed=2)
        groups = make_concept_groups(task)
        specs = ShiftsConfig().specs(len(groups))
        sweep(model, task, ShiftsConfig.scores, specs, groups)
        tracemalloc.start()
        try:
            sweep(model, task, ShiftsConfig.scores, specs, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, peak


class TestShiftsConfig:
    @pytest.mark.parametrize("empty", [{"kinds": ()}, {"severities": ()}])
    def test_an_empty_sweep_is_rejected(self, empty):
        config = ShiftsConfig(include_control=False, concept=False, **empty)
        assert config.specs(5) == []
        with pytest.raises(ConfigError, match="the sweep is empty"):
            config.validate()

    @pytest.mark.parametrize("kept", [{"include_control": True}, {"concept": True}, {"kinds": ("smoothing",)}])
    def test_any_one_row_kind_makes_a_sweep(self, kept):
        config = ShiftsConfig(**{"kinds": (), "include_control": False, "concept": False, **kept})
        config.validate()
        assert config.specs(5) != []


class TestAdjacentDrops:
    def test_monotone_has_no_drops(self):
        assert np.all(adjacent_drops([0.1, 0.2, 0.3]) == 0.0)

    def test_drop_measured(self):
        drops = adjacent_drops([0.5, 0.4, 0.6])
        np.testing.assert_allclose(drops, [0.1, 0.0])
