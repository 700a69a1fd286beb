"""On-disk formats: grid files, dataset manifests, and 16-bit graymap export.

Grid files are little-endian float32 with a 4-byte magic and u32 dimensions:

    "FPD1" rows cols rows*cols float32            (real grids)
    "FPC1" rows cols rows*cols (re, im) float32   (complex grids)

row-major, no padding, no trailing bytes. In memory everything is float64 /
complex128; precision is dropped exactly once, on write.

The manifest is UTF-8 JSON with a fixed key set; unknown keys anywhere in it
are rejected so that typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .errors import FormatError, ManifestError, NumericalError, WindowOutOfBounds
from .field import wrap_phase
from .optics import Illumination, OpticalConfig, illumination_offsets

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

# the dataclasses are the manifest schema, as field name -> annotated type in
# field order: the root's keys are the optics fields, an LED object's the
# illumination fields plus its capture file
OPTICS_FIELDS = get_type_hints(OpticalConfig)
ILLUMINATION_FIELDS = get_type_hints(Illumination)
_MANIFEST_KEYS = frozenset(OPTICS_FIELDS) | {"version", "saturation"}
_ILLUMINATION_KEYS = frozenset(ILLUMINATION_FIELDS) | {"file"}
# largest high-res grid a manifest may ask for, in pixels: 1 GiB as complex128
MAX_GRID_PIXELS = 2 ** 26


# ---------------------------------------------------------------------------
# grid files


def _read_exact(fh, count: int, path: str, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"{path}: truncated {what}")
    return data


def _write_grid(path: str, arr: np.ndarray, magic: bytes) -> None:
    """Write a float64 or complex128 grid as the float32 samples of its
    float64 view: a complex grid's interleaved re, im, as the reader views them."""
    if arr.ndim != 2:
        raise FormatError(f"{path}: grids are 2-D, got ndim={arr.ndim}")
    flat = np.ascontiguousarray(arr).view(np.float64).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(flat.tobytes())


def _read_grid(path: str, magic: bytes) -> tuple[int, int, np.ndarray]:
    with open(path, "rb") as fh:
        got = _read_exact(fh, 4, path, "magic")
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        rows, cols = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: zero-sized grid {rows}x{cols}")
        per = 1 if magic == b"FPD1" else 2
        size = rows * cols * per * 4
        # a corrupt header can claim gigabytes: check the file holds them
        # before asking read() for that many
        if size > os.fstat(fh.fileno()).st_size - 12:
            raise FormatError(f"{path}: truncated payload")
        payload = _read_exact(fh, size, path, "payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<f4")
    return rows, cols, data


def write_real_grid(path: str, arr: np.ndarray) -> None:
    _write_grid(path, np.asarray(arr, dtype=np.float64), b"FPD1")


def read_real_grid(path: str) -> np.ndarray:
    rows, cols, data = _read_grid(path, b"FPD1")
    return data.astype(np.float64).reshape(rows, cols)


def write_complex_grid(path: str, arr: np.ndarray) -> None:
    _write_grid(path, np.asarray(arr, dtype=np.complex128), b"FPC1")


def read_complex_grid(path: str) -> np.ndarray:
    rows, cols, data = _read_grid(path, b"FPC1")
    # the payload interleaves re, im: the complex128 view of its float64
    # copy keeps every bit, signed zeros included (re + 1j * im does not)
    return data.astype(np.float64).view(np.complex128).reshape(rows, cols)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """A manifest-described capture set, fully loaded into memory."""

    optics: OpticalConfig
    images: list[np.ndarray]       # float64 intensities, each optics.low_shape
    files: list[str]               # image file names, manifest order
    saturation: float | None = None


def default_file_names(count: int) -> list[str]:
    return [f"img_{n:04d}.fpd1" for n in range(count)]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ManifestError(msg)


def _integer(val, what: str) -> int:
    # bool is an int subclass and True == 1: check the type first
    _require(isinstance(val, int) and not isinstance(val, bool),
             f"{what} must be an integer")
    return val


def _finite(val, what: str) -> float:
    """A JSON number as a finite float. json.loads accepts NaN and
    +-Infinity, and an integer literal can be too large for a float."""
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{what} must be a number")
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    _require(math.isfinite(val), f"{what} must be finite, got {val}")
    return val


def _require_keys(obj, keys: frozenset, what: str) -> None:
    """Reject anything but a JSON object with exactly ``keys``."""
    _require(isinstance(obj, dict), f"{what} must be an object")
    if obj.keys() != keys:
        for word, diff in (("unknown", obj.keys() - keys), ("missing", keys - obj.keys())):
            _require(not diff, f"{what}: {word} fields {sorted(diff)}")


def _numbers(obj: dict, types: dict[str, type], prefix: str) -> dict:
    """The int and float fields of ``types``, read from ``obj`` and checked."""
    return {name: (_integer if typ is int else _finite)(obj[name], prefix + name)
            for name, typ in types.items() if typ in (int, float)}


def _require_bare_name(fname, what: str) -> None:
    """Reject a name that opens no capture file of its own in the dataset directory."""
    _require(isinstance(fname, str) and fname not in ("", ".", "..", MANIFEST_NAME)
             and not any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in fname),
             f"{what}: file must be a bare file name other than {MANIFEST_NAME}")


def _require_files(files: list) -> None:
    """Every LED's capture file has a bare name of its own: a repeated name
    would make write_dataset overwrite one capture with another."""
    seen: dict[str, int] = {}   # file name -> first illumination using it
    for i, fname in enumerate(files):
        _require_bare_name(fname, f"illumination {i}")
        _require(fname not in seen, f"illumination {i}: file {fname!r} is already "
                 f"used by illumination {seen.get(fname)}; names must be distinct")
        seen[fname] = i


def parse_manifest(text: str) -> tuple[OpticalConfig, list[str], float | None]:
    """Parse and validate manifest JSON; returns (optics, files, saturation)."""
    try:
        doc = json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer literal longer than
    # int() accepts; nesting too deep for the parser raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    _require_keys(doc, _MANIFEST_KEYS, "manifest root")
    version = _integer(doc["version"], "version")
    _require(version == MANIFEST_VERSION, f"unsupported manifest version {version!r}")

    sat = doc["saturation"]
    if sat is not None:
        sat = _finite(sat, "saturation")
        _require(sat > 0, "saturation must be null or a positive number")
    ills = doc["illuminations"]
    _require(isinstance(ills, list) and len(ills) > 0,
             "illuminations must be a non-empty list")
    parsed = []
    for i, entry in enumerate(ills):
        _require_keys(entry, _ILLUMINATION_KEYS, f"illumination {i}")
        try:
            parsed.append(Illumination(**_numbers(entry, ILLUMINATION_FIELDS,
                                                  f"illumination {i}: ")))
        except ValueError as exc:
            raise ManifestError(f"illumination {i}: {exc}") from exc
    files = [entry["file"] for entry in ills]
    _require_files(files)

    optics = _numbers(doc, OPTICS_FIELDS, "")
    # before OpticalConfig, so an oversized grid is reported as one
    upsample = optics["upsample"]
    high_rows, high_cols = optics["low_rows"] * upsample, optics["low_cols"] * upsample
    _require(high_rows * high_cols <= MAX_GRID_PIXELS,
             f"a {high_rows}x{high_cols} high-res grid exceeds {MAX_GRID_PIXELS} pixels")
    try:
        cfg = OpticalConfig(**optics, illuminations=tuple(parsed))
        # geometry must close: every shifted window inside the high-res grid
        illumination_offsets(cfg)
    except (ValueError, WindowOutOfBounds) as exc:
        raise ManifestError(str(exc)) from exc
    return cfg, files, sat


def read_manifest(path: str) -> tuple[OpticalConfig, list[str], float | None]:
    """Parse a manifest file; one missing or not UTF-8 is a ManifestError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: manifest is not UTF-8: {exc}") from exc
    return parse_manifest(text)


def manifest_text(cfg: OpticalConfig, files: list[str],
                  saturation: float | None) -> str:
    if len(files) != len(cfg.illuminations):
        raise ManifestError(
            f"{len(files)} file names for {len(cfg.illuminations)} illuminations")
    _require_files(files)
    doc = {
        # the fields, not asdict: that would also copy every LED into a dict
        **{name: getattr(cfg, name) for name in OPTICS_FIELDS},
        "version": MANIFEST_VERSION,
        "saturation": saturation,
        "illuminations": [
            {**{name: getattr(ill, name) for name in ILLUMINATION_FIELDS}, "file": fname}
            for ill, fname in zip(cfg.illuminations, files)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_dataset(ds: Dataset, out_dir: str) -> None:
    """Check, then write manifest plus one FPD1 file per image (float32 on disk)."""
    if len(ds.images) != len(ds.files) or len(ds.files) != len(ds.optics.illuminations):
        raise ManifestError("images, files, and illuminations must align")
    shape = ds.optics.low_shape
    for img, fname in zip(ds.images, ds.files):
        if np.shape(img) != shape:
            raise ManifestError(f"{fname}: image is {np.shape(img)}, manifest says {shape}")
    text = manifest_text(ds.optics, ds.files, ds.saturation)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(text)
    for img, fname in zip(ds.images, ds.files):
        write_real_grid(os.path.join(out_dir, fname), img)


def read_dataset(in_dir: str) -> Dataset:
    """Load and validate a dataset directory."""
    cfg, files, sat = read_manifest(os.path.join(in_dir, MANIFEST_NAME))
    images = []
    for fname in files:
        path = os.path.join(in_dir, fname)
        img = read_real_grid(path)
        if img.shape != cfg.low_shape:
            raise FormatError(f"{path}: grid is {img.shape}, manifest says {cfg.low_shape}")
        if np.any(~np.isfinite(img)):
            raise NumericalError(f"{path}: non-finite intensity sample")
        if np.any(img < 0):
            raise FormatError(f"{path}: negative intensity sample")
        images.append(img)
    return Dataset(optics=cfg, images=images, files=files, saturation=sat)


# ---------------------------------------------------------------------------
# graymap export


def export_image(grid: np.ndarray, path: str, mode: str = "amp") -> None:
    """Write a 16-bit binary PGM of one component of a grid.

    mode selects amp | phase; phases are wrapped to (-pi, pi] before
    scaling. The value range maps linearly to 0..65535; a constant grid maps
    to mid-gray 32768. Samples are big-endian per the PGM spec.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise FormatError(f"{path}: grids are 2-D, got ndim={grid.ndim}")
    z = grid.astype(np.complex128)
    if mode == "amp":
        img = np.abs(z)
    elif mode == "phase":
        img = wrap_phase(np.angle(z))
    else:
        raise ValueError(f"unknown image mode {mode!r}")
    if not np.all(np.isfinite(img)):
        raise NumericalError(f"{path}: non-finite sample in {mode} image")
    lo = float(img.min())
    hi = float(img.max())
    if hi == lo:
        scaled = np.full(img.shape, 32768, dtype=np.uint16)
    else:
        # a non-negative amplitude or a wrapped phase keeps hi - lo finite,
        # but the reciprocal of a subnormal range overflows: divide by it
        scale = 65535.0 / (hi - lo)
        if math.isfinite(scale):
            scaled = np.rint((img - lo) * scale).astype(np.uint16)
        else:
            scaled = np.rint((img - lo) / (hi - lo) * 65535.0).astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (img.shape[1], img.shape[0]))
        fh.write(scaled.astype(">u2").tobytes())
