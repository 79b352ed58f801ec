"""Versioned binary checkpoints, embedding files, and report serialization.

Checkpoint layout (all little-endian), format version 1:

    magic   4 bytes  b"GODN"
    version u32
    payload:
        seed      u64     flags u32 (bit0 trained, bit1 calibrated)
        variant   u32     (0 vanilla, 1 alpha_only, 2 beta_only, 3 alpha_beta)
        d_in      u32     n_hidden u32, then n_hidden u32 widths
        d_feature u32     n_classes u32
        f64 array section: extractor.flat (per layer W row-major, then b),
        then head.flat (W row-major, alpha_w, alpha_b, beta_w, beta_b)
    checksum u64 FNV-1a over the payload bytes

The loader checks the structure even when the checksum holds: every width
>= 1, n_classes >= 2, an array section of exactly the size the header
implies, and finite parameters.  Round trips are identity at byte level.
Report CSV/JSON round-trip at 6 significant digits.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .bench import DetectionReport, ReportRow
from .errors import DomainError, FormatError, IntegrityError, NumericError, UnsupportedVersionError
from .head import HeadParams, HeadVariant
from .train import ExtractorParams, Model

MAGIC = b"GODN"
FORMAT_VERSION = 1
_VARIANT_CODES = {v: i for i, v in enumerate(HeadVariant)}
_VARIANT_FROM_CODE = {i: v for v, i in _VARIANT_CODES.items()}

REPORT_FIELDS = ("score", "shift_kind", "severity", "auroc", "tnr_at_tpr95", "n_id", "n_ood", "seed")

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


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_model(model: Model, path) -> None:
    """Write a version-1 checkpoint; bit-exact under load_model.

    Raises NumericError, writing nothing, if a parameter is not finite.
    """
    head = model.head
    if not model.finite():
        raise NumericError("cannot save a checkpoint with non-finite parameters")
    hidden = model.extractor.dims[1:-1]
    payload = bytearray()
    payload += struct.pack("<QII", int(model.meta.get("seed", 0)), _flags(model), _VARIANT_CODES[head.variant])
    payload += struct.pack("<II", model.extractor.d_in, len(hidden))
    payload += struct.pack(f"<{len(hidden)}I", *hidden)
    payload += struct.pack("<II", head.d_feature, head.n_classes)
    payload += _array_bytes(model.extractor.flat)
    payload += _array_bytes(head.flat)
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + bytes(payload) + struct.pack("<Q", fnv1a64(bytes(payload)))
    Path(path).write_bytes(blob)


def _flags(model: Model) -> int:
    return (1 if model.meta.get("trained") else 0) | (2 if model.meta.get("calibrated") else 0)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("checkpoint truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)


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

    r = _Reader(payload)
    seed, flags, variant_code = r.unpack("<QII")
    if variant_code not in _VARIANT_FROM_CODE:
        raise FormatError(f"unknown head variant code {variant_code}")
    d_in, n_hidden = r.unpack("<II")
    hidden = list(r.unpack(f"<{n_hidden}I"))
    d_feature, n_classes = r.unpack("<II")
    dims = [d_in, *hidden, d_feature]
    if min(dims) < 1 or n_classes < 2:
        raise FormatError(f"invalid checkpoint shapes: widths {dims}, n_classes {n_classes}")

    n_extractor = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    n_head = (n_classes + 2) * d_feature + 2
    if 8 * (n_extractor + n_head) != len(payload) - r.pos:
        raise FormatError(
            f"array section holds {len(payload) - r.pos} bytes but the header implies {8 * (n_extractor + n_head)}"
        )
    extractor = ExtractorParams.from_flat(r.array(n_extractor), dims)
    head = HeadParams.from_flat(r.array(n_head), n_classes, d_feature, _VARIANT_FROM_CODE[variant_code])
    model = Model(extractor, head, {"seed": int(seed), "trained": bool(flags & 1)})
    if flags & 2:
        model.meta["calibrated"] = True
    if not model.finite():
        raise FormatError("checkpoint holds non-finite parameters")
    return model


def parse_embeddings(path) -> dict[str, np.ndarray]:
    """Read a whitespace-separated token/vector text file.

    The dimension is inferred from the first record; ragged or unparsable
    lines raise FormatError with their line number; blank lines are skipped;
    the first occurrence of a duplicate token wins.
    """
    table: dict[str, np.ndarray] = {}
    dim = None
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
            if token not in table:
                table[token] = vec
    if not table:
        raise FormatError(f"embedding file {path} contains no records")
    return table


def _format_number(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def _round6(x: float) -> float:
    return float(f"{float(x):.6g}")


def write_report(report: DetectionReport, path, format: str = "csv") -> None:
    """Write a detection report as CSV (fixed header) or JSON (mirrors fields)."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            for row in report.rows:
                writer.writerow([_format_number(getattr(row, f)) for f in REPORT_FIELDS])
    elif format == "json":
        doc = {
            "rows": [
                {
                    f: (_round6(getattr(r, f)) if f in ("auroc", "tnr_at_tpr95") else getattr(r, f))
                    for f in REPORT_FIELDS
                }
                for r in report.rows
            ]
        }
        if report.config is not None:
            doc["config"] = report.config
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        raise DomainError(f"unknown report format {format!r}")


def read_report(path) -> DetectionReport:
    """Read back a CSV or JSON detection report."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"{path}: not a JSON report ({exc})") from None
        rows = doc.get("rows", []) if isinstance(doc, dict) else None
        if not isinstance(rows, list):
            raise FormatError(f"{path}: a JSON report must be an object with a list of rows")
        return DetectionReport(rows=[_row_from_dict(d, path) for d in rows], config=doc.get("config"))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(REPORT_FIELDS):
                raise FormatError(f"{path}: unexpected report header {header}")
            rows = [_row_from_dict(dict(zip(REPORT_FIELDS, line)), path) for line in reader if line]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV report ({exc})") from None
    return DetectionReport(rows=rows)


def _row_from_dict(d: dict, path) -> ReportRow:
    try:
        return ReportRow(
            score=str(d["score"]),
            shift_kind=str(d["shift_kind"]),
            severity=int(d["severity"]),
            auroc=float(d["auroc"]),
            tnr_at_tpr95=float(d["tnr_at_tpr95"]),
            n_id=int(d["n_id"]),
            n_ood=int(d["n_ood"]),
            seed=int(d["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed report row {d!r} ({exc})") from None
