"""Grid files, dataset manifests, and graymap export."""

import json
import os
import struct
import tempfile
import tracemalloc
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fptycho.cli import main
from fptycho.errors import FormatError, ManifestError, NumericalError
from fptycho.field import wrap_phase
from fptycho.io import (ILLUMINATION_FIELDS, MAX_GRID_PIXELS, OPTICS_FIELDS,
                        Dataset, default_file_names, export_image,
                        manifest_text, parse_manifest, read_complex_grid,
                        read_dataset, read_real_grid, write_complex_grid,
                        write_dataset, write_real_grid)
from fptycho.optics import Illumination, OpticalConfig


def f32_exact(rng, shape):
    """Random float64 values that survive the float32 disk format bitwise."""
    return rng.random(shape).astype(np.float32).astype(np.float64)


def tiny_config(**kw):
    defaults = dict(wavelength_um=0.532, na=0.1, magnification=2.0,
                    camera_pixel_um=3.45, upsample=2, low_rows=8, low_cols=8,
                    illuminations=(Illumination(sx=0.0, sy=0.0),
                                   Illumination(sx=0.05, sy=-0.05)))
    defaults.update(kw)
    return OpticalConfig(**defaults)


# -- grid files -------------------------------------------------------------

def test_real_grid_round_trip_is_bitwise(tmp_path):
    rng = np.random.Generator(np.random.PCG64(60))
    arr = f32_exact(rng, (5, 7))
    path = str(tmp_path / "g.fpd1")
    write_real_grid(path, arr)
    assert np.array_equal(read_real_grid(path), arr)


def test_complex_grid_round_trip_is_bitwise(tmp_path):
    rng = np.random.Generator(np.random.PCG64(61))
    arr = f32_exact(rng, (4, 3)) + 1j * f32_exact(rng, (4, 3))
    path = str(tmp_path / "g.fpc1")
    write_complex_grid(path, arr)
    assert np.array_equal(read_complex_grid(path), arr)


# float32-exact values; hypothesis draws signed zeros, subnormals and the
# ends of the float32 range often
_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _f32_grid(draw, parts):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    size = rows * cols * parts
    values = np.array(draw(st.lists(_F32, min_size=size, max_size=size)))
    return values.view(np.complex128 if parts == 2 else np.float64).reshape(rows, cols)


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grids")


_SUBNORMAL = 2.0 ** -149          # the smallest float32 subnormal


@given(_f32_grid(1) | _f32_grid(2))
@example(np.array([[0.0, -0.0, _SUBNORMAL, -(2.0 ** -126 - _SUBNORMAL)]]))
@example(np.array([[complex(-0.0, -0.0), complex(0.0, -0.0),
                    complex(-0.0, 0.0), complex(-_SUBNORMAL, _SUBNORMAL)]]))
def test_grid_files_round_trip_every_float32_value_bitwise(grid_dir, arr):
    if arr.dtype == np.complex128:
        write, read, path = write_complex_grid, read_complex_grid, grid_dir / "g.fpc1"
    else:
        write, read, path = write_real_grid, read_real_grid, grid_dir / "g.fpd1"
    write(str(path), arr)
    back = read(str(path))
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_real_grid_bytes_match_hand_packed_layout(tmp_path):
    arr = np.array([[1.5, -2.25], [0.5, 3.0]])
    path = str(tmp_path / "g.fpd1")
    write_real_grid(path, arr)
    expected = (b"FPD1" + struct.pack("<II", 2, 2)
                + np.array([1.5, -2.25, 0.5, 3.0], dtype="<f4").tobytes())
    assert (tmp_path / "g.fpd1").read_bytes() == expected


def test_complex_grid_payload_interleaves_re_im(tmp_path):
    arr = np.array([[1.0 + 2.0j, -0.5 + 0.25j]])
    path = str(tmp_path / "g.fpc1")
    write_complex_grid(path, arr)
    expected = (b"FPC1" + struct.pack("<II", 1, 2)
                + np.array([1.0, 2.0, -0.5, 0.25], dtype="<f4").tobytes())
    assert (tmp_path / "g.fpc1").read_bytes() == expected


def test_hand_packed_bytes_read_back(tmp_path):
    payload = np.array([0.5, 1.5, -1.0, 2.0, 0.0, -0.25], dtype="<f4")
    path = tmp_path / "h.fpd1"
    path.write_bytes(b"FPD1" + struct.pack("<II", 3, 2) + payload.tobytes())
    got = read_real_grid(str(path))
    assert np.array_equal(got, payload.astype(np.float64).reshape(3, 2))
    assert got.dtype == np.float64


def test_wrong_magic_is_rejected(tmp_path):
    path = str(tmp_path / "g.fpd1")
    write_real_grid(path, np.ones((2, 2)))
    with pytest.raises(FormatError, match="magic"):
        read_complex_grid(path)


def test_trailing_bytes_are_rejected(tmp_path):
    path = tmp_path / "g.fpd1"
    write_real_grid(str(path), np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_real_grid(str(path))


def test_truncated_payload_names_the_file(tmp_path):
    path = tmp_path / "cut.fpd1"
    write_real_grid(str(path), np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="cut.fpd1"):
        read_real_grid(str(path))


def test_lying_header_is_rejected_before_allocating_its_claim(tmp_path):
    # 28 bytes that claim a 4096x4096 complex grid (134 MB of payload)
    path = tmp_path / "liar.fpc1"
    path.write_bytes(b"FPC1" + struct.pack("<II", 4096, 4096) + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            read_complex_grid(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _small_grid_file():
    """Header with small dimensions, then arbitrary payload bytes."""
    return st.builds(lambda r, c, tail: struct.pack("<II", r, c) + tail,
                     st.integers(0, 6), st.integers(0, 6),
                     st.binary(max_size=320))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(b"FPD1", read_real_grid),
                        (b"FPC1", read_complex_grid)]),
       st.binary(max_size=80) | _small_grid_file())
def test_arbitrary_bytes_after_the_magic_read_or_raise_format_error(kind, body):
    magic, reader = kind
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g")
        with open(path, "wb") as fh:
            fh.write(magic + body)
        try:
            grid = reader(path)
        except FormatError:
            return
    rows, cols = struct.unpack("<II", body[:8])
    assert grid.shape == (rows, cols) and grid.size == rows * cols


def test_zero_sized_grid_is_rejected(tmp_path):
    path = tmp_path / "z.fpd1"
    path.write_bytes(b"FPD1" + struct.pack("<II", 0, 4))
    with pytest.raises(FormatError, match="zero"):
        read_real_grid(str(path))


def test_grids_must_be_two_dimensional(tmp_path):
    with pytest.raises(FormatError):
        write_real_grid(str(tmp_path / "g.fpd1"), np.ones(5))


# -- manifests --------------------------------------------------------------

def test_manifest_round_trip():
    cfg = tiny_config()
    files = default_file_names(2)
    text = manifest_text(cfg, files, 0.5)
    cfg2, files2, sat2 = parse_manifest(text)
    assert cfg2 == cfg
    assert files2 == files
    assert sat2 == 0.5


def test_manifest_null_saturation_round_trips():
    cfg = tiny_config()
    _, _, sat = parse_manifest(manifest_text(cfg, default_file_names(2), None))
    assert sat is None


@st.composite
def _manifest_fields(draw):
    """A valid (optics, files, saturation): every LED within half a spectrum
    bin of the axis, so each window fits the grid at any upsampling."""
    wavelength = draw(st.floats(min_value=0.2, max_value=2.0))
    magnification = draw(st.floats(min_value=0.5, max_value=50.0))
    camera_pixel = draw(st.floats(min_value=0.5, max_value=20.0))
    low_rows, low_cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    # sine s shifts the spectrum by s / (wavelength * pitch) bins
    pitch = magnification / (max(low_rows, low_cols) * camera_pixel)
    half_bin = min(0.49 * wavelength * pitch, 0.7)
    sine = st.floats(min_value=-half_bin, max_value=half_bin)
    leds = draw(st.lists(st.builds(Illumination, sine, sine), min_size=1, max_size=5))
    cfg = OpticalConfig(
        wavelength_um=wavelength, na=draw(st.floats(min_value=0.01, max_value=0.95)),
        magnification=magnification, camera_pixel_um=camera_pixel,
        upsample=draw(st.integers(1, 8)), low_rows=low_rows, low_cols=low_cols,
        illuminations=tuple(leds))
    name = st.text("abcxyz019_-.", min_size=1, max_size=8).filter(
        lambda f: f not in (".", ".."))
    files = draw(st.lists(name, min_size=len(leds), max_size=len(leds), unique=True))
    return cfg, files, draw(st.none() | st.floats(min_value=1e-3, max_value=1e3))


@settings(max_examples=200, deadline=None)
@given(_manifest_fields())
def test_manifest_text_and_parse_are_inverse(fields):
    """Parsing a written manifest returns what was written, and writing
    that again gives the same text byte for byte."""
    text = manifest_text(*fields)
    parsed = parse_manifest(text)
    assert parsed == fields
    assert manifest_text(*parsed) == text


# integer-valued floats print as "2.0", not "2"; -0.0 keeps its sign
_WHOLE = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
_BARE_NAME = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="/\\\0"),
                     min_size=1, max_size=8).filter(
    lambda f: f not in (".", "..", "manifest.json"))


@st.composite
def _manifest_parts(draw):
    """Optics, LED directions, any bare file names and a saturation."""
    positive = _WHOLE.filter(bool) | st.floats(0.3, 30.0)
    sine = _WHOLE.filter(lambda x: x == 0.0) | st.floats(-0.7, 0.7)
    leds = draw(st.lists(st.builds(Illumination, sine, sine), max_size=6))
    cfg = OpticalConfig(wavelength_um=draw(positive), na=draw(st.floats(0.01, 0.95)),
                        magnification=draw(positive), camera_pixel_um=draw(positive),
                        upsample=2, low_rows=8, low_cols=8, illuminations=tuple(leds))
    files = draw(st.lists(_BARE_NAME, min_size=len(leds), max_size=len(leds),
                          unique=True))
    return cfg, files, draw(st.none() | _WHOLE.filter(bool) | st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@example((tiny_config(), ["\u00e9\U0001f600%s, \"x\"\n", "img"], 2.0))
@given(_manifest_parts())
def test_manifest_text_is_the_indented_json_dump(parts):
    """manifest_text lays out the LED list itself; its bytes are those of
    ``json.dumps(indent=2, sort_keys=True)``, with non-ASCII names escaped and
    integer-valued floats written as floats."""
    cfg, files, saturation = parts
    doc = {**{name: getattr(cfg, name) for name in OPTICS_FIELDS},
           "version": 1, "saturation": saturation,
           "illuminations": [{**{name: getattr(ill, name) for name in ILLUMINATION_FIELDS},
                              "file": fname}
                             for ill, fname in zip(cfg.illuminations, files)]}
    text = manifest_text(cfg, files, saturation)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _doc(**edits):
    doc = json.loads(manifest_text(tiny_config(), default_file_names(2), None))
    doc.update(edits)
    return doc


def test_unknown_manifest_field_is_rejected():
    doc = _doc(extra=1)
    with pytest.raises(ManifestError, match="unknown"):
        parse_manifest(json.dumps(doc))


def test_missing_manifest_field_is_rejected():
    doc = _doc()
    del doc["na"]
    with pytest.raises(ManifestError, match="missing"):
        parse_manifest(json.dumps(doc))


def test_unsupported_version_is_rejected():
    with pytest.raises(ManifestError, match="version"):
        parse_manifest(json.dumps(_doc(version=2)))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_one(version):
    # True == 1 and 1.0 == 1 in Python; neither is a manifest version
    with pytest.raises(ManifestError, match="version"):
        parse_manifest(json.dumps(_doc(version=version)))


def test_duplicate_file_names_are_rejected():
    doc = _doc()
    doc["illuminations"][1]["file"] = doc["illuminations"][0]["file"]
    with pytest.raises(ManifestError, match="already used by illumination 0"):
        parse_manifest(json.dumps(doc))


def test_duplicate_file_names_are_not_written(tmp_path):
    ds = Dataset(optics=tiny_config(), images=[np.ones((8, 8)), np.zeros((8, 8))],
                 files=["a.fpd1", "a.fpd1"])
    with pytest.raises(ManifestError, match="distinct"):
        write_dataset(ds, str(tmp_path))
    assert not (tmp_path / "a.fpd1").exists()


# the writer applies the reader's file-name rule: these names used to land
# outside the dataset directory, fail after the manifest was written, or
# overwrite the manifest with a capture
@pytest.mark.parametrize("fname", ["../escaped.fpd1", "sub/a.fpd1", "..",
                                   "manifest.json"],
                         ids=["parent", "subdir", "dotdot", "manifest"])
def test_names_the_reader_rejects_are_not_written(tmp_path, fname):
    out = tmp_path / "out"
    ds = Dataset(optics=tiny_config(), images=[np.ones((8, 8))] * 2,
                 files=[fname, "b.fpd1"])
    with pytest.raises(ManifestError, match="illumination 0: file must be a bare"):
        write_dataset(ds, str(out))
    assert list(tmp_path.rglob("*")) == []


def test_a_misshapen_image_is_named_before_anything_is_written(tmp_path):
    out = tmp_path / "out"
    ds = Dataset(optics=tiny_config(), images=[np.ones((8, 8)), np.ones((8, 7))],
                 files=default_file_names(2))
    with pytest.raises(ManifestError, match=r"img_0001.fpd1: image is \(8, 7\)"):
        write_dataset(ds, str(out))
    assert not out.exists()


def test_invalid_json_is_rejected():
    for text in ("{not json", '{"upsample": ' + "1" * 5000 + "}",
                 "[" * 100000 + "]" * 100000):
        with pytest.raises(ManifestError, match="JSON"):
            parse_manifest(text)


def test_unit_direction_vector_is_rejected():
    doc = _doc()
    doc["illuminations"][1]["sx"] = 0.8
    doc["illuminations"][1]["sy"] = 0.8
    with pytest.raises(ManifestError):
        parse_manifest(json.dumps(doc))


def test_path_separators_in_file_names_are_rejected():
    doc = _doc()
    doc["illuminations"][0]["file"] = "../evil.fpd1"
    with pytest.raises(ManifestError, match="bare"):
        parse_manifest(json.dumps(doc))


# each used to parse and then exit 1 from inspect: "." and ".." open as
# directories, NUL and a lone surrogate raise ValueError inside open()
@pytest.mark.parametrize("fname", [".", "..", "a\x00b", "\ud800"],
                         ids=["dot", "dotdot", "nul", "surrogate"])
def test_file_names_that_open_no_file_in_the_dataset_exit_2(tmp_path, capsys,
                                                            fname):
    doc = _doc()
    doc["illuminations"][1]["file"] = fname
    text = json.dumps(doc)
    with pytest.raises(ManifestError, match="bare"):
        parse_manifest(text)
    (tmp_path / "manifest.json").write_text(text)
    assert main(["inspect", "--dataset", str(tmp_path)]) == 2
    assert "bare file name" in capsys.readouterr().err


def test_window_escaping_the_grid_is_rejected():
    # the 16x16 synthesis grid cannot hold a window shifted by this angle
    cfg = tiny_config(illuminations=(Illumination(sx=0.0, sy=0.0),
                                     Illumination(sx=0.2, sy=0.0)))
    with pytest.raises(ManifestError):
        parse_manifest(manifest_text(cfg, default_file_names(2), None))


def test_unknown_illumination_field_is_rejected():
    doc = _doc()
    doc["illuminations"][0]["power"] = 2.0
    with pytest.raises(ManifestError, match="unknown"):
        parse_manifest(json.dumps(doc))


# json.loads accepts NaN and Infinity, and integer literals beyond any float;
# tiny_config has 8x8 captures, so the last two ask for huge grids
@pytest.mark.parametrize("key, value, match", [
    ("wavelength_um", float("nan"), "wavelength_um must be finite"),
    ("na", float("nan"), "na must be finite"),
    ("magnification", float("inf"), "magnification must be finite"),
    ("camera_pixel_um", float("inf"), "camera_pixel_um must be finite"),
    ("magnification", 10 ** 400, "magnification must be finite"),
    ("saturation", float("inf"), "saturation must be finite"),
    ("upsample", 100000, "800000x800000 high-res grid"),
    ("low_rows", 2 ** 24, "high-res grid"),
], ids=["nan_wavelength", "nan_na", "inf_magnification", "inf_pixel",
        "huge_int_magnification", "inf_saturation", "huge_upsample",
        "huge_low_rows"])
def test_non_finite_numbers_and_huge_grids_exit_2(tmp_path, capsys, key,
                                                  value, match):
    write_dataset(Dataset(optics=tiny_config(), images=[np.ones((8, 8))] * 2,
                          files=default_file_names(2)), str(tmp_path))
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc[key] = value
    text = json.dumps(doc)
    with pytest.raises(ManifestError, match=match):
        parse_manifest(text)
    (tmp_path / "manifest.json").write_text(text)
    assert main(["inspect", "--dataset", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err


# finite optics whose derived geometry overflows or underflows; each used to
# escape parse_manifest as ZeroDivisionError or OverflowError (exit 1)
@pytest.mark.parametrize("edits, match", [
    (dict(camera_pixel_um=1e308, magnification=1e-308), "pixel_low_um"),
    (dict(camera_pixel_um=1e-308, magnification=1e308), "pixel_low_um"),
    (dict(camera_pixel_um=5e-324, magnification=1.0), "pixel_high_um"),
    (dict(wavelength_um=1e-320), "cutoff_cycles"),
    (dict(wavelength_um=1e300, na=1e-300), "cutoff_cycles"),
    (dict(wavelength_um=1e-320, na=1e-300), "not finite"),
    (dict(camera_pixel_um=1e308, magnification=1.0), "not finite"),
    (dict(upsample=10 ** 400), "high-res grid"),
], ids=["inf_pixel", "zero_pixel", "zero_high_pixel", "inf_cutoff",
        "zero_cutoff", "inf_offset", "zero_bin_pitch", "huge_int_upsample"])
def test_degenerate_geometry_exits_2(tmp_path, capsys, edits, match):
    text = json.dumps(_doc(**edits))
    with pytest.raises(ManifestError, match=match):
        parse_manifest(text)
    write_dataset(Dataset(optics=tiny_config(), images=[np.ones((8, 8))] * 2,
                          files=default_file_names(2)), str(tmp_path))
    (tmp_path / "manifest.json").write_text(text)
    assert main(["inspect", "--dataset", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err


# any finite float, with positive ones drawn half the time: only those get
# past the sign checks to the derived geometry
_FINITE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None)
@given(_FINITE, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE)
@example(1e-320, 0.1, 2.0, 3.45, 0.05, -0.05)
@example(0.532, 0.1, 1e-308, 1e308, 0.05, -0.05)
def test_any_finite_optics_parse_or_raise_manifest_error(
        wavelength_um, na, magnification, camera_pixel_um, sx, sy):
    doc = _doc(wavelength_um=wavelength_um, na=na, magnification=magnification,
               camera_pixel_um=camera_pixel_um)
    doc["illuminations"][1].update(sx=sx, sy=sy)
    try:
        parse_manifest(json.dumps(doc))
    except ManifestError:
        pass


# any value json.loads can return, huge integers and NaN/Infinity included
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# plausible values half the time, so cases also get past the type checks
_DIM = st.integers(min_value=-2, max_value=40) | _JSON
_SINE = st.floats(min_value=-0.2, max_value=0.2) | _JSON
_FILE = st.text(max_size=6) | st.sampled_from([".", "..", "a\x00b", "\ud800"]) | _JSON
_LED = _JSON | st.fixed_dictionaries(
    {**{f.name: _SINE for f in fields(Illumination)}, "file": _FILE},
    optional={"power": _JSON})
# every int and float field of OpticalConfig, taken from the dataclass as
# the parser takes them, so a field added there is drawn here too
_OPTICS_HINTS = get_type_hints(OpticalConfig)
_OPTICS = {f.name: _DIM if _OPTICS_HINTS[f.name] is int
           else st.floats(min_value=0.0, max_value=10.0) | _JSON
           for f in fields(OpticalConfig) if _OPTICS_HINTS[f.name] in (int, float)}
_EDITS = st.fixed_dictionaries({}, optional={
    **_OPTICS,
    "version": st.integers(min_value=0, max_value=2) | _JSON,
    "files": st.lists(_FILE, min_size=2, max_size=2),
    "saturation": st.floats(min_value=0.0) | _JSON,
    "illuminations": st.lists(_LED, max_size=4) | _JSON})


def names_a_file_in_the_directory(fname: str) -> bool:
    """What ``read_dataset`` can open as ``os.path.join(in_dir, fname)``."""
    try:
        fname.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return os.path.basename(fname) == fname and fname not in ("", ".", "..") \
        and "\0" not in fname


@settings(max_examples=500, deadline=None)
@given(_EDITS)
@example({"camera_pixel_um": 10 ** 400})
@example({"version": True})
@example({"low_rows": 2.0})
def test_any_manifest_fields_parse_or_raise_manifest_error(edits):
    doc = _doc()
    for entry, fname in zip(doc["illuminations"], edits.pop("files", [])):
        entry["file"] = fname
    doc.update(edits)
    try:
        _, files, _ = parse_manifest(json.dumps(doc))
    except (ManifestError, FormatError):
        return
    assert all(names_a_file_in_the_directory(f) for f in files)


def test_the_manifest_schema_is_the_dataclass_fields():
    """The parser's and writer's key lists are the dataclasses' fields, in
    field order, each with its resolved annotation."""
    for cls, schema in ((OpticalConfig, OPTICS_FIELDS),
                        (Illumination, ILLUMINATION_FIELDS)):
        assert list(schema) == [f.name for f in fields(cls)]
        assert schema == get_type_hints(cls)
    assert set(OPTICS_FIELDS.values()) >= {int, float}
    doc = _doc()
    assert set(doc) == set(OPTICS_FIELDS) | {"version", "saturation"}
    assert set(doc["illuminations"][0]) == set(ILLUMINATION_FIELDS) | {"file"}


def test_grid_bound_admits_exactly_the_largest_grid():
    # 8x8 captures upsampled 1024x give 8192 x 8192 = MAX_GRID_PIXELS
    cfg, _, _ = parse_manifest(json.dumps(_doc(upsample=1024)))
    assert cfg.high_rows * cfg.high_cols == MAX_GRID_PIXELS
    with pytest.raises(ManifestError, match="8200x8200 high-res grid"):
        parse_manifest(json.dumps(_doc(upsample=1025)))


# -- dataset directories ----------------------------------------------------

def test_dataset_directory_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(62))
    cfg = tiny_config()
    ds = Dataset(optics=cfg, images=[f32_exact(rng, (8, 8)) for _ in range(2)],
                 files=default_file_names(2), saturation=0.75)
    write_dataset(ds, str(tmp_path))
    back = read_dataset(str(tmp_path))
    assert back.optics == cfg
    assert back.files == ds.files
    assert back.saturation == 0.75
    assert all(np.array_equal(a, b) for a, b in zip(back.images, ds.images))


def test_missing_manifest_is_a_manifest_error(tmp_path):
    with pytest.raises(ManifestError, match="manifest.json"):
        read_dataset(str(tmp_path))


def test_negative_intensity_is_rejected_on_read(tmp_path):
    cfg = tiny_config()
    imgs = [np.ones((8, 8)), np.ones((8, 8))]
    imgs[1][3, 3] = -1.0
    write_dataset(Dataset(cfg, imgs, default_file_names(2)), str(tmp_path))
    with pytest.raises(FormatError, match="negative"):
        read_dataset(str(tmp_path))


def test_non_finite_intensity_is_a_numerical_error(tmp_path):
    cfg = tiny_config()
    imgs = [np.ones((8, 8)), np.ones((8, 8))]
    imgs[0][0, 0] = np.inf
    write_dataset(Dataset(cfg, imgs, default_file_names(2)), str(tmp_path))
    with pytest.raises(NumericalError, match="non-finite"):
        read_dataset(str(tmp_path))


def test_image_shape_must_match_manifest(tmp_path):
    cfg = tiny_config()
    write_dataset(Dataset(cfg, [np.ones((8, 8))] * 2, default_file_names(2)),
                  str(tmp_path))
    write_real_grid(str(tmp_path / "img_0001.fpd1"), np.ones((4, 4)))
    with pytest.raises(FormatError, match="manifest says"):
        read_dataset(str(tmp_path))


def test_misaligned_dataset_fields_are_rejected(tmp_path):
    cfg = tiny_config()
    with pytest.raises(ManifestError):
        write_dataset(Dataset(cfg, [np.ones((8, 8))], default_file_names(2)),
                      str(tmp_path))


# -- graymap export ---------------------------------------------------------

def _read_pgm(path):
    raw = path.read_bytes()
    header, _, rest = raw.partition(b"65535\n")
    assert header.startswith(b"P5\n")
    dims = header.split(b"\n")[1].split()
    cols, rows = int(dims[0]), int(dims[1])
    return np.frombuffer(rest, dtype=">u2").reshape(rows, cols)


def test_constant_grid_exports_mid_gray(tmp_path):
    path = tmp_path / "c.pgm"
    export_image(np.full((2, 3), 1.7), str(path), mode="amp")
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n65535\n")
    assert np.all(_read_pgm(path) == 32768)


def test_binary_grid_exports_full_scale(tmp_path):
    path = tmp_path / "b.pgm"
    export_image(np.array([[0.0, 1.0], [1.0, 0.0]]), str(path), mode="amp")
    assert np.array_equal(_read_pgm(path),
                          np.array([[0, 65535], [65535, 0]], dtype=np.uint16))


@pytest.mark.filterwarnings("error")
def test_subnormal_value_range_still_spans_full_scale(tmp_path):
    # 65535 / (hi - lo) overflows for a range of a few subnormal steps
    tiny = np.nextafter(0.0, 1.0)
    path = tmp_path / "s.pgm"
    export_image(np.array([[0.0, 5e-324]]), str(path), mode="amp")
    assert np.array_equal(_read_pgm(path), np.array([[0, 65535]], dtype=np.uint16))
    export_image(np.array([[0.0, 2 * tiny, 4 * tiny]]), str(path), mode="amp")
    assert np.array_equal(_read_pgm(path),
                          np.array([[0, 32768, 65535]], dtype=np.uint16))


@pytest.mark.filterwarnings("error")
def test_largest_amplitude_range_spans_full_scale(tmp_path):
    path = tmp_path / "h.pgm"
    export_image(np.array([[0.0, 1.7e308]]), str(path), mode="amp")
    assert np.array_equal(_read_pgm(path), np.array([[0, 65535]], dtype=np.uint16))


def test_amp_mode_maps_linearly(tmp_path):
    path = tmp_path / "r.pgm"
    export_image(np.array([[-1.0, 0.0], [1.0j, 3.0]]), str(path), mode="amp")
    assert np.array_equal(_read_pgm(path),
                          np.array([[21845, 0], [21845, 65535]],
                                   dtype=np.uint16))


def test_phase_mode_maps_the_wrapped_angle_linearly(tmp_path):
    rng = np.random.Generator(np.random.PCG64(63))
    z = np.exp(1j * (rng.random((6, 6)) * 12 - 6))
    path = tmp_path / "a.pgm"
    export_image(z, str(path), mode="phase")
    phase = wrap_phase(np.angle(z))
    lo, hi = phase.min(), phase.max()
    want = np.rint((phase - lo) * (65535.0 / (hi - lo))).astype(np.uint16)
    assert np.array_equal(_read_pgm(path), want)


def test_real_and_imag_modes_are_rejected(tmp_path):
    path = str(tmp_path / "x.pgm")
    # only amp and phase are bounded: a real or imaginary part can span
    # more than the largest float
    for mode in ("real", "imag"):
        with pytest.raises(ValueError, match="unknown image mode"):
            export_image(np.array([[1.0 + 0.0j, 2.0 + 1.0j]]), path, mode=mode)


def test_export_rejects_bad_inputs(tmp_path):
    path = str(tmp_path / "x.pgm")
    with pytest.raises(ValueError, match="unknown image mode"):
        export_image(np.ones((2, 2)), path, mode="fancy")
    with pytest.raises(FormatError):
        export_image(np.ones(4), path)
    with pytest.raises(NumericalError):
        export_image(np.array([[1.0, np.inf]]), path, mode="amp")
