"""Versioned binary checkpoints, embedding files, and report serialization.

Checkpoint layout (all little-endian), format version 1:

    magic   4 bytes  b"GODN"
    version u32
    payload:
        seed      u64     flags u32 (bit0 trained, bit1 calibrated)
        variant   u32     (0 vanilla, 1 alpha_only, 2 beta_only, 3 alpha_beta)
        d_in      u32     n_hidden u32, then n_hidden u32 widths
        d_feature u32     n_classes u32
        f64 array section: Model.flat, of which extractor (per layer W row-major,
        then b) and head (W row-major, alpha_w, alpha_b, beta_w, beta_b) are views
    checksum u64 FNV-1a over the payload bytes

The loader checks the structure even when the checksum holds: a header
that fits the payload, known variant code and flag bits, every width >= 1,
n_classes >= 2, an array section of exactly the size the header implies,
and finite parameters.  Round trips are identity at byte level.
Report CSV/JSON round-trip at 6 significant digits.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bench import DetectionReport, ReportRow, ShiftsConfig, ShiftSpec
from .errors import ConfigError, FormatError, IntegrityError, NumericError, UnsupportedVersionError
from .head import HeadParams, HeadVariant
from .train import ExtractorParams, Model, check_seed

MAGIC = b"GODN"
FORMAT_VERSION = 1
_VARIANTS = tuple(HeadVariant)  # indexed by the checkpoint's variant code
_HEADER = struct.Struct("<QIIII")  # seed, flags, variant code, d_in, n_hidden

_REPORT_TYPES = get_type_hints(ReportRow)  # field name -> type, in ReportRow's field order
REPORT_FIELDS = tuple(_REPORT_TYPES)
_JSON_TYPES = {str: (str,), float: (int, float), int: (int,)}  # a field type's JSON values, as parsed; never bool

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF
_FNV_BLOCK = 1 << 16  # bytes per block; bounds the temporaries at ~2 MB


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, computed exactly with numpy, block by block.

    The low byte s of the state runs on its own: s' = ((s ^ b) * 0xB3) mod 256,
    and bit k of s' is bit k of s ^ b XOR bit k of ((s ^ b) mod 2**k) * 0xB3,
    so once the lower bits are known each bit plane is a prefix XOR.  Then
    h ^ b = h + d with d = (s ^ b) - s, and the state after n bytes is
    h * P**n + sum(d_i * P**(n - i)) mod 2**64, a wrapping uint64 dot product.
    """
    stream = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    if stream.size == 0:
        return h
    powers = _fnv_powers(min(stream.size, _FNV_BLOCK))
    for start in range(0, stream.size, _FNV_BLOCK):
        b = stream[start : start + _FNV_BLOCK]
        n = b.size
        s = np.zeros(n, np.uint8)  # low byte of the state before each byte
        flips = np.empty(n, np.uint8)
        for k in range(8):
            bit = 1 << k
            flips[0] = h & bit
            t = s[:-1] ^ b[:-1]
            t &= bit - 1
            t *= _FNV_PRIME & 0xFF
            t ^= b[:-1]
            np.bitwise_and(t, bit, out=flips[1:])
            plane = _prefix_xor(flips)
            plane *= bit
            s |= plane
        d = (s ^ b).astype(np.int64)
        d -= s
        tail = int(np.dot(d.view(np.uint64), powers[n - 1 :: -1]))
        # Python ints here: numpy uint64 scalars warn on overflow.
        h = (h * int(powers[n - 1]) + tail) * _FNV_PRIME & _U64
    return h


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a uint8 array read as bits (nonzero = 1), as 0/1 uint8."""
    n = bits.size
    packed = np.zeros(8 * -(-n // 64), np.uint8)
    packed[: -(-n // 8)] = np.packbits(bits, bitorder="little")
    words = packed.view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    parity = words >> 63
    words ^= -(np.bitwise_xor.accumulate(parity) ^ parity)  # all-ones where the earlier words' XOR is 1
    return np.unpackbits(packed, count=n, bitorder="little")


def _fnv_powers(n: int) -> np.ndarray:
    """The FNV prime to the powers 0 .. n-1, mod 2**64, as the outer product of P**(256 a) and P**c."""
    one = np.ones(1, np.uint64)
    low = np.multiply.accumulate(np.full(256, _FNV_PRIME, np.uint64))  # P**1 .. P**256
    high = np.multiply.accumulate(np.full(-(-n // 256) - 1, low[-1], np.uint64))
    return np.multiply.outer(np.concatenate((one, high)), np.concatenate((one, low[:-1]))).ravel()[:n]


def save_model(model: Model, path) -> None:
    """Write a version-1 checkpoint; bit-exact under load_model.

    Raises NumericError, writing nothing, if a parameter is not finite.
    """
    head, meta = model.head, model.meta
    if not model.finite():
        raise NumericError("cannot save a checkpoint with non-finite parameters")
    hidden = model.extractor.dims[1:-1]
    flags = bool(meta.get("trained")) | bool(meta.get("calibrated")) << 1
    payload = b"".join((
        _HEADER.pack(int(meta.get("seed", 0)), flags, _VARIANTS.index(head.variant), model.extractor.d_in, len(hidden)),
        _widths(len(hidden)).pack(*hidden, head.d_feature, head.n_classes),
        model.flat.astype("<f8", copy=False).tobytes(),
    ))
    Path(path).write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION) + payload + struct.pack("<Q", fnv1a64(payload)))


def _widths(n_hidden: int) -> struct.Struct:
    """The header's n_hidden widths, then d_feature and n_classes."""
    return struct.Struct(f"<{n_hidden + 2}I")


def load_model(path) -> Model:
    """Read a checkpoint, verifying version and checksum."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4 + 8:
        raise FormatError("checkpoint truncated")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", data[len(MAGIC) : len(MAGIC) + 4])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"checkpoint format version {version} is not supported (this build reads version {FORMAT_VERSION})"
        )
    payload = data[len(MAGIC) + 4 : -8]
    (stored,) = struct.unpack("<Q", data[-8:])
    if fnv1a64(payload) != stored:
        raise IntegrityError("checkpoint payload fails its checksum")

    try:
        seed, flags, variant_code, d_in, n_hidden = _HEADER.unpack_from(payload)
        widths = _widths(n_hidden)
        *hidden, d_feature, n_classes = widths.unpack_from(payload, _HEADER.size)
    except struct.error:
        raise FormatError("checkpoint truncated") from None
    if variant_code >= len(_VARIANTS):
        raise FormatError(f"unknown head variant code {variant_code}")
    if flags & ~3:
        raise FormatError(f"unknown checkpoint flag bits {flags & ~3:#x}")
    dims = [d_in, *hidden, d_feature]
    if min(dims) < 1 or n_classes < 2:
        raise FormatError(f"invalid checkpoint shapes: widths {dims}, n_classes {n_classes}")

    start = _HEADER.size + widths.size
    n_params = ExtractorParams.size(dims) + HeadParams.size(n_classes, d_feature)
    if 8 * n_params != len(payload) - start:
        raise FormatError(f"array section holds {len(payload) - start} bytes but the header implies {8 * n_params}")
    flat = np.frombuffer(payload, dtype="<f8", offset=start).astype(np.float64)
    model = Model(flat, dims, n_classes, _VARIANTS[variant_code], {"seed": seed, "trained": bool(flags & 1)})
    if flags & 2:
        model.meta["calibrated"] = True
    if not model.finite():
        raise FormatError("checkpoint holds non-finite parameters")
    return model


def parse_embeddings(path) -> dict[str, np.ndarray]:
    """Read a whitespace-separated token/vector text file.

    The dimension is inferred from the first record; ragged lines and bad
    (unparsable or non-finite) numbers raise FormatError with their line
    number; blank lines are skipped;
    the first occurrence of a duplicate token wins.
    """
    table: dict[str, np.ndarray] = {}
    dim = None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                if dim is None:
                    if not values:
                        raise FormatError(f"line {lineno}: record has no vector components")
                    dim = len(values)
                if len(values) != dim:
                    raise FormatError(f"line {lineno}: expected {dim} components, found {len(values)}")
                try:
                    vec = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise FormatError(f"line {lineno}: non-finite vector component")
                if token not in table:
                    table[token] = vec
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 embedding file ({exc})") from None
    if not table:
        raise FormatError(f"embedding file {path} contains no records")
    return table


def _row_values(row: ReportRow, format_float) -> list:
    """The row's fields in declared order, each float field through format_float."""
    return [format_float(getattr(row, f)) if t is float else getattr(row, f) for f, t in _REPORT_TYPES.items()]


def write_report(report: DetectionReport, path) -> None:
    """Write a detection report: JSON (mirrors fields) for a ``.json`` suffix in any case, else CSV (fixed header).

    ``read_report`` picks the format by the same rule.  Float fields are written at 6 significant digits.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {"rows": [dict(zip(REPORT_FIELDS, _row_values(row, lambda x: float(f"{x:.6g}")))) for row in report.rows]}
        if report.config is not None:
            doc["config"] = report.config
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        writer.writerows(_row_values(row, "{:.6g}".format) for row in report.rows)


def read_report(path) -> DetectionReport:
    """Read back a detection report: JSON if the path's suffix is ``.json``, in any case, else CSV."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"{path}: not a JSON report ({exc})") from None
        rows = doc.get("rows", []) if isinstance(doc, dict) else None
        if not isinstance(rows, list):
            raise FormatError(f"{path}: a JSON report must be an object with a list of rows")
        for d in rows:
            bad = isinstance(d, dict) and [f for f, t in _REPORT_TYPES.items() if type(d.get(f)) not in _JSON_TYPES[t]]
            if bad:
                raise FormatError(f"{path}: report row {d!r} has fields of the wrong JSON type: {', '.join(bad)}")
        return DetectionReport(rows=[_row_from_dict(d, path) for d in rows], config=doc.get("config"))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(REPORT_FIELDS):
                raise FormatError(f"{path}: unexpected report header {reader.fieldnames}")
            rows = [_row_from_dict(d, path) for d in reader]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV report ({exc})") from None
    return DetectionReport(rows=rows)


def _row_from_dict(d: dict, path) -> ReportRow:
    try:  # a short CSV row's missing cells are None, so int() fails at its last, the seed
        row = ReportRow(**{f: _REPORT_TYPES[f](d[f]) for f in REPORT_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed report row {d!r} ({exc})") from None
    if None in d:  # csv.DictReader's key for the cells past the header's
        raise FormatError(f"{path}: report row {d!r} has more cells than the header")
    if row.n_id < 1 or row.n_ood < 1:
        raise FormatError(f"{path}: report row {d!r} has a count below 1")
    if not all(0.0 <= getattr(row, f) <= 1.0 for f, t in _REPORT_TYPES.items() if t is float):
        raise FormatError(f"{path}: report row {d!r} has a rate that is not a finite number in [0, 1]")
    try:  # a row that ``sweep`` could not write: its score, spec or seed is one a run rejects
        ShiftsConfig(scores=(row.score,)).validate()
        ShiftSpec(row.shift_kind, row.severity)
        check_seed(row.seed)
    except ConfigError as exc:
        raise FormatError(f"{path}: report row {d!r}: {exc}") from None
    return row
