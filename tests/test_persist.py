"""Checkpoint round trips, embedding parsing, report serialization."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from geodin.bench import DetectionReport, ReportRow
from geodin.cli import main
from geodin.errors import (
    DomainError,
    FormatError,
    IntegrityError,
    NumericError,
    UnsupportedVersionError,
)
from geodin.head import HeadVariant
from geodin.persist import (
    MAGIC,
    fnv1a64,
    load_model,
    parse_embeddings,
    read_report,
    save_model,
    write_report,
)
from geodin.train import Model, TrainConfig, train
from oracles import copy_head, fnv1a64_reference


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal([1.5, 0.0], 0.3, (40, 2)), rng.normal([-1.5, 0.0], 0.3, (40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    return train(TrainConfig(epochs=4, seed=12, hidden=(6,), feature_dim=5), (X, y))


class TestCheckpointRoundTrip:
    def test_bit_exact(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        loaded = load_model(path)
        for (Wa, ba), (Wb, bb) in zip(model.extractor.layers, loaded.extractor.layers):
            assert Wa.tobytes() == Wb.tobytes() and ba.tobytes() == bb.tobytes()
        assert model.head.W.tobytes() == loaded.head.W.tobytes()
        assert model.head.alpha_w.tobytes() == loaded.head.alpha_w.tobytes()
        assert model.head.alpha_b == loaded.head.alpha_b
        assert model.head.beta_w.tobytes() == loaded.head.beta_w.tobytes()
        assert model.head.beta_b == loaded.head.beta_b
        assert loaded.head.variant is HeadVariant.ALPHA_BETA
        assert loaded.meta["seed"] == 12
        assert loaded.meta["trained"] is True

    def test_file_bytes_stable(self, model, tmp_path):
        a, b = tmp_path / "a.godn", tmp_path / "b.godn"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_flipped_payload_byte_fails_integrity(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_model(path)

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises((FormatError, IntegrityError)):
            load_model(path)

    def test_future_version_names_both(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError, match=r"version 7.*version 1"):
            load_model(path)

    def test_bad_magic(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_non_finite_parameter_not_saved(self, model, tmp_path):
        path = tmp_path / "m.godn"
        broken = Model(model.extractor, copy_head(model.head), dict(model.meta))
        broken.head.flat[0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            save_model(broken, path)
        assert not path.exists()

    def test_magic_constant(self):
        assert MAGIC == b"GODN"


def sign(payload: bytes) -> bytes:
    """A version-1 file around payload, with a valid checksum."""
    return MAGIC + struct.pack("<I", 1) + payload + struct.pack("<Q", fnv1a64(payload))


def resign(blob: bytes) -> bytes:
    """Replace the last 8 bytes with the checksum of the bytes between them and magic/version."""
    return blob[:-8] + struct.pack("<Q", fnv1a64(blob[8:-8]))


def checkpoint_payload(d_in, hidden, d_feature, n_classes, n_floats=None):
    """Header for the given shapes, then n_floats float64s (default: the count the shapes imply)."""
    dims = [d_in, *hidden, d_feature]
    if n_floats is None:
        n_floats = sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:])) + (n_classes + 2) * d_feature + 2
    header = struct.pack("<QII", 0, 1, 3) + struct.pack("<II", d_in, len(hidden))
    header += struct.pack(f"<{len(hidden)}I", *hidden) + struct.pack("<II", d_feature, n_classes)
    return header + np.full(n_floats, 0.5).astype("<f8").tobytes()


class TestCheckpointValidation:
    def test_hand_built_checkpoint_loads(self, tmp_path):
        path = tmp_path / "m.godn"
        path.write_bytes(sign(checkpoint_payload(3, [4], 2, 2)))
        loaded = load_model(path)
        assert loaded.extractor.dims == [3, 4, 2]
        assert loaded.head.n_classes == 2

    @pytest.mark.parametrize(
        "shapes",
        [(3, [0], 2, 2), (3, [4, 0], 2, 2), (0, [4], 2, 2), (3, [4], 0, 2), (3, [4], 2, 1), (3, [4], 2, 0)],
    )
    def test_degenerate_shapes_rejected(self, tmp_path, shapes):
        path = tmp_path / "m.godn"
        path.write_bytes(sign(checkpoint_payload(*shapes)))
        with pytest.raises(FormatError, match="invalid checkpoint shapes"):
            load_model(path)

    @pytest.mark.parametrize("delta", [-1, 1, 1000])
    def test_array_section_size_must_match_header(self, tmp_path, delta):
        n = 3 * 4 + 4 + 4 * 2 + 2 + 4 * 2 + 2 + delta
        path = tmp_path / "m.godn"
        path.write_bytes(sign(checkpoint_payload(3, [4], 2, 2, n_floats=n)))
        with pytest.raises(FormatError, match="header implies"):
            load_model(path)

    def test_huge_declared_shapes_rejected_without_allocating(self, tmp_path):
        path = tmp_path / "m.godn"
        path.write_bytes(sign(checkpoint_payload(2**32 - 1, [2**32 - 1], 2**32 - 1, 2**32 - 1, n_floats=4)))
        with pytest.raises(FormatError, match="header implies"):
            load_model(path)

    @pytest.mark.parametrize("flags", [0, 1, 2, 3, 4, 0x80000000, 0xF1])
    def test_only_trained_and_calibrated_flag_bits_load(self, tmp_path, flags):
        payload = bytearray(checkpoint_payload(3, [4], 2, 2))
        payload[8:12] = struct.pack("<I", flags)  # after the u64 seed
        path = tmp_path / "m.godn"
        path.write_bytes(sign(bytes(payload)))
        if flags > 3:
            with pytest.raises(FormatError, match="flag bits"):
                load_model(path)
        else:
            loaded = load_model(path)
            assert loaded.meta["trained"] is bool(flags & 1)
            assert loaded.meta.get("calibrated", False) is bool(flags & 2)

    @pytest.mark.parametrize(
        "payload",
        [
            checkpoint_payload(3, [4], 2, 2)[:23],  # inside the fixed fields
            checkpoint_payload(3, [4], 2, 2)[:27],  # inside the widths
            struct.pack("<QIIII", 0, 1, 3, 3, 2**32 - 1) + bytes(64),  # n_hidden far beyond the payload
        ],
        ids=["fixed_fields", "widths", "huge_n_hidden"],
    )
    def test_truncated_header_with_valid_checksum(self, tmp_path, payload):
        path = tmp_path / "m.godn"
        path.write_bytes(sign(payload))
        with pytest.raises(FormatError, match="checkpoint truncated"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, model, tmp_path, bad):
        path = tmp_path / "m.godn"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        header = 8 + 16 + 8 + 4 + 8  # magic/version, seed/flags/variant, d_in/n_hidden, one width, d_feature/n_classes
        blob[header : header + 8] = struct.pack("<d", bad)
        path.write_bytes(resign(bytes(blob)))
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)

    def test_array_section_is_extractor_then_head_flat(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        flat = np.concatenate([model.extractor.flat, model.head.flat])
        assert path.read_bytes()[-8 - 8 * flat.size : -8] == flat.astype("<f8").tobytes()

    def test_mutation_fuzz_raises_only_documented_errors(self, model, tmp_path):
        path = tmp_path / "m.godn"
        save_model(model, path)
        clean = path.read_bytes()
        rng = np.random.default_rng(2024)
        outcomes = {"loaded": 0, FormatError: 0, IntegrityError: 0, UnsupportedVersionError: 0}
        for trial in range(400):
            blob = bytearray(clean)
            kind = trial % 3
            if kind == 0:  # flip bits in a few bytes
                for pos in rng.integers(0, len(blob), int(rng.integers(1, 4))):
                    blob[pos] ^= int(rng.integers(1, 256))
            elif kind == 1:  # truncate
                blob = blob[: int(rng.integers(0, len(blob)))]
            else:  # extend the payload with junk
                junk = rng.integers(0, 256, int(rng.integers(1, 64)), dtype=np.uint8).tobytes()
                blob = blob[:-8] + junk + blob[-8:]
            if trial % 2 and len(blob) >= 16:
                blob = resign(bytes(blob))
            path.write_bytes(bytes(blob))
            try:
                loaded = load_model(path)
            except (FormatError, IntegrityError, UnsupportedVersionError) as exc:
                outcomes[type(exc)] += 1
                continue
            outcomes["loaded"] += 1
            assert min(loaded.extractor.dims) >= 1 and loaded.head.n_classes >= 2
            assert np.isfinite(loaded.extractor.flat).all() and np.isfinite(loaded.head.flat).all()
        # every branch of the loader was exercised
        assert all(count > 0 for count in outcomes.values()), outcomes


class TestFnv1a64:
    def test_known_vectors(self):
        # Reference values for the 64-bit FNV-1a parameters.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_sensitive_to_any_byte(self):
        base = fnv1a64(b"hello world")
        assert fnv1a64(b"hello worle") != base

    # edges of the 64-bit packed words (63-65), of the 256-wide rows of the
    # power table (255-257) and of the 64 KiB blocks
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 255, 256, 257, 65535, 65536, 65537, 2 * 65536 + 1])
    def test_matches_reference_on_random_bytes(self, n):
        data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == fnv1a64_reference(data)

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    @pytest.mark.parametrize("n", [1, 64, 65537])
    def test_matches_reference_on_constant_runs(self, fill, n):
        data = bytes([fill]) * n
        assert fnv1a64(data) == fnv1a64_reference(data)

    def test_matches_reference_on_default_checkpoint(self, tmp_path):
        path = tmp_path / "model.godn"
        assert main(["train", "--out", str(path)]) == 0
        blob = path.read_bytes()
        payload = blob[8:-8]
        assert fnv1a64(payload) == fnv1a64_reference(payload) == struct.unpack("<Q", blob[-8:])[0]


class TestParseEmbeddings:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = parse_embeddings(path)
        assert set(table) == {"cat", "dog"}
        np.testing.assert_array_equal(table["dog"], [4.0, 5.0, 6.0])

    def test_ragged_line_reports_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            parse_embeddings(path)

    def test_bad_float_reports_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 oops\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            parse_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_component_reports_number(self, tmp_path, bad):
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1.0 0.0\ncar {bad} 1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: non-finite"):
            parse_embeddings(path)

    def test_duplicate_first_wins(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0\ncat 9.0\n", encoding="utf-8")
        table = parse_embeddings(path)
        assert len(table) == 1
        assert table["cat"][0] == 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            parse_embeddings(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\n\ndog 3.0 4.0\n\n", encoding="utf-8")
        assert len(parse_embeddings(path)) == 2


def sample_report():
    return DetectionReport(
        rows=[
            ReportRow("g", "gaussian_noise", 3, 0.87654321, 0.43219876, 640, 640, 7),
            ReportRow("h", "concept_split", 1, 0.7654321, 0.3456789, 640, 400, 7),
        ],
        config={"task": {"k": 8}},
    )


class TestReports:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(DetectionReport(), path, "csv")
        assert path.read_text().strip() == "score,shift_kind,severity,auroc,tnr_at_tpr95,n_id,n_ood,seed"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(sample_report(), path, "csv")
        back = read_report(path)
        assert len(back.rows) == 2
        assert back.rows[0].score == "g"
        assert back.rows[0].auroc == pytest.approx(0.87654321, abs=5e-7)
        assert back.rows[0].n_id == 640 and back.rows[0].seed == 7

    def test_json_round_trip_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(sample_report(), p1, "json")
        back = read_report(p1)
        assert back.config == {"task": {"k": 8}}
        write_report(back, p2, "json")
        assert p1.read_text() == p2.read_text()

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(sample_report(), path, "csv")
        line = path.read_text().splitlines()[1]
        assert "0.876543" in line

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "field,value",
        [("auroc", math.nan), ("auroc", math.inf), ("tnr_at_tpr95", -math.inf), ("tnr_at_tpr95", math.nan),
         ("auroc", 1.5), ("tnr_at_tpr95", -0.25)],
    )
    def test_rate_that_is_not_in_the_unit_interval_rejected(self, tmp_path, fmt, field, value):
        path = tmp_path / f"r.{fmt}"
        rows = sample_report().rows
        write_report(DetectionReport(rows=[rows[0], dataclasses.replace(rows[1], **{field: value})]), path, fmt)
        with pytest.raises(FormatError, match="not a finite number in \\[0, 1\\]"):
            read_report(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rates_at_the_interval_ends_read_back(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        row = dataclasses.replace(sample_report().rows[0], auroc=0.0, tnr_at_tpr95=1.0)
        write_report(DetectionReport(rows=[row]), path, fmt)
        assert read_report(path).rows == [row]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            write_report(sample_report(), tmp_path / "r.xml", "xml")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("wrong,header\n1,2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_report(path)
