import json
import re
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trusskit import geom
from trusskit import io as tio
from trusskit.errors import (
    ConfigRangeError,
    ConfigTypeError,
    FieldRangeError,
    FieldTypeError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingXyzError,
    TrussKitError,
    TruncatedBodyError,
    UnknownKeyError,
)
from trusskit.geom import LabeledCloud, Pose, fingerprint
from trusskit.segment import PipelineConfig
from trusskit.synth import BoxFieldSpec, SceneSpec, SensorConfig, TrussSpec

from helpers import ascii_pcd, parse_pcd_header_reference


def random_cloud(rng, n, with_pose=True):
    pose = Pose((1.0, -2.0, 3.0), (1.0, 0.0, 0.0, 0.0)) if with_pose else Pose()
    return LabeledCloud(rng.normal(size=(n, 3)) * 5,
                        rng.integers(0, 40, n), sensor_pose=pose)


def _one_point_pcd(count="1 1 1", width="1", points="1", body="1 2 3",
                   version=".7"):
    return (f"VERSION {version}\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            f"COUNT {count}\nWIDTH {width}\nHEIGHT 1\nPOINTS {points}\n"
            f"DATA ascii\n{body}\n").encode()


# one-point PCDs with one header or body fault each, and the start of the
# MalformedHeaderError message each gets
MALFORMED_PCDS = {
    "count_zero": (_one_point_pcd(count="0 1 1"),
                   "COUNT entries must be >= 1"),
    "negative_width": (_one_point_pcd(width="-1"), "negative WIDTH/HEIGHT"),
    "points_mismatch": (_one_point_pcd(width="2"),
                        "WIDTH*HEIGHT = 2 but POINTS = 1"),
    "non_numeric_body": (_one_point_pcd(body="1 2 x"),
                         "non-numeric ascii body"),
    "empty_version": (_one_point_pcd(version=""), "VERSION line is empty"),
}


class TestPcdRoundTrip:
    def test_empty_cloud(self):
        blob = tio.write_pcd(LabeledCloud(np.zeros((0, 3))))
        text_head = blob[:200].decode()
        assert "POINTS 0" in text_head
        back = tio.read_pcd(blob)
        assert len(back) == 0

    def test_binary_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cloud = random_cloud(rng, int(rng.integers(1, 300)))
            blob = tio.write_pcd(cloud)
            back = tio.read_pcd(blob)
            assert np.array_equal(back.points.astype(np.float32),
                                  cloud.points.astype(np.float32))
            assert np.array_equal(back.face_label, cloud.face_label)
            assert back.sensor_pose == cloud.sensor_pose
            # byte determinism
            assert blob == tio.write_pcd(cloud)

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 3),
                           max_size=40),
           labels=st.data(), mode=st.sampled_from(["binary", "ascii"]))
    def test_read_inverts_write(self, points, labels, mode):
        pts = np.array(points, dtype=np.float64).reshape(-1, 3)
        lab = labels.draw(st.lists(st.integers(0, 2**32 - 1),
                                   min_size=len(pts), max_size=len(pts)))
        cloud = LabeledCloud(pts, np.array(lab, dtype=np.int64))
        blob = tio.write_pcd(cloud)
        back = tio.read_pcd(ascii_pcd(blob) if mode == "ascii" else blob)
        assert np.array_equal(back.points.astype(np.float32),
                              pts.astype(np.float32))
        assert np.array_equal(back.face_label, cloud.face_label)

    def test_ascii_binary_agree(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 64)
        blob = tio.write_pcd(cloud)
        a = tio.read_pcd(ascii_pcd(blob))
        b = tio.read_pcd(blob)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.face_label, b.face_label)

    def test_minimal_ascii_file(self):
        text = ("VERSION .7\nFIELDS x y z label\nSIZE 4 4 4 4\n"
                "TYPE F F F U\nCOUNT 1 1 1 1\nWIDTH 2\nHEIGHT 1\n"
                "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
                "0.5 0 1 0\n1 2 3 7\n")
        cloud = tio.read_pcd(text.encode())
        assert len(cloud) == 2
        assert cloud.face_label.tolist() == [0, 7]

    def test_truncated_body(self):
        text = ("VERSION .7\nFIELDS x y z label\nSIZE 4 4 4 4\n"
                "TYPE F F F U\nCOUNT 1 1 1 1\nWIDTH 10\nHEIGHT 1\n"
                "POINTS 10\nDATA ascii\n" + "1 2 3 0\n" * 9)
        with pytest.raises(TruncatedBodyError):
            tio.read_pcd(text.encode())
        cloud = random_cloud(np.random.default_rng(2), 10)
        blob = tio.write_pcd(cloud)
        with pytest.raises(TruncatedBodyError,
                           match="^body holds 156 bytes, header declares 160$"):
            tio.read_pcd(blob[:-4])

    def test_intensity_carries_labels(self):
        text = ("VERSION .7\nFIELDS x y z intensity\nSIZE 4 4 4 4\n"
                "TYPE F F F F\nCOUNT 1 1 1 1\nWIDTH 3\nHEIGHT 1\n"
                "POINTS 3\nDATA ascii\n"
                "0 0 0 0.0\n1 0 0 4.0\n0 1 0 17.2\n")
        cloud = tio.read_pcd(text.encode())
        assert cloud.face_label.tolist() == [0, 4, 17]

    def test_column_order_and_extra_fields(self):
        text = ("VERSION .7\nFIELDS label z y x extra\nSIZE 4 4 4 4 8\n"
                "TYPE U F F F F\nCOUNT 1 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
                "POINTS 1\nDATA ascii\n9 3 2 1 0.25\n")
        cloud = tio.read_pcd(text.encode())
        assert np.allclose(cloud.points[0], [1, 2, 3])
        assert cloud.face_label[0] == 9

    @staticmethod
    def one_label(field, type_size, value, data="ascii"):
        """A one-point PCD whose ``field`` is of ``type_size`` ("U1", ...)
        and holds ``value``: ascii text, or the bytes of a binary body."""
        head = (f"VERSION .7\nFIELDS x y z {field}\n"
                f"SIZE 4 4 4 {type_size[1:]}\nTYPE F F F {type_size[0]}\n"
                "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\n"
                f"DATA {data}\n").encode()
        if data == "ascii":
            return head + f"1 2 3 {value}\n".encode()
        return head + np.array([1, 2, 3], "<f4").tobytes() + value

    @pytest.mark.parametrize("type_size, value", [
        ("U1", "300"), ("U4", "-1"), ("U8", "18446744073709551615"),
        ("I1", "128"), ("I2", "-32769"), ("U2", "nan"), ("I4", "inf"),
        ("U1", "0.9"), ("I4", "-1.5")])
    def test_ascii_value_that_does_not_fit_is_refused(self, type_size, value):
        with pytest.raises(FieldRangeError, match=f"'label'.*{type_size}"):
            tio.read_pcd(self.one_label("label", type_size, value))

    @pytest.mark.parametrize("type_size, value, label", [
        ("U1", "255", 255), ("U4", "4294967295", 4294967295),
        ("I1", "-128", 0), ("I8", "-9223372036854775808", 0)])
    def test_ascii_value_at_the_ends_of_its_type(self, type_size, value,
                                                 label):
        cloud = tio.read_pcd(self.one_label("label", type_size, value))
        assert cloud.face_label.tolist() == [label]

    @pytest.mark.parametrize("type_size, value, want", [
        ("I8", "9007199254740993", 2**53 + 1),
        ("I8", "+9007199254740993", 2**53 + 1),
        ("I8", "9.007199254740993e15", 2**53 + 1),
        ("I8", "-9007199254740993", -(2**53 + 1)),
        ("I8", "9223372036854775807", 2**63 - 1),
        ("I8", "-9223372036854775808", -2**63),
        ("U8", "18446744073709551615", 2**64 - 1),
        ("U8", "1e19", 10**19),
        ("I8", "5.0", 5)])
    def test_ascii_eight_byte_integer_is_exact(self, type_size, value, want):
        _, arrays = tio.read_pcd_arrays(self.one_label("label", type_size,
                                                       value))
        assert arrays["label"].dtype == np.dtype(f"<{type_size.lower()}")
        assert arrays["label"].tolist() == [want]

    @pytest.mark.parametrize("type_size, value", [
        ("I8", "9223372036854775808"), ("I8", "-9223372036854775809"),
        ("U8", "18446744073709551616"), ("I8", "9007199254740993.5"),
        ("U8", "-1"), ("I8", "inf"), ("I8", "nan"), ("I8", "1e400")])
    def test_ascii_eight_byte_integer_past_its_type_is_refused(
            self, type_size, value):
        with pytest.raises(FieldRangeError) as exc:
            tio.read_pcd_arrays(self.one_label("label", type_size, value))
        assert str(exc.value) == \
            f"field 'label' holds a value that does not fit {type_size}"

    def test_ascii_eight_byte_integers_keep_their_places(self):
        # large values among small ones, in a COUNT 2 field and a scalar
        rows = [(0, 2**53 + 1, 7, 2**64 - 1), (1, -5, -(2**63), 3),
                (2, 2**62 + 3, 2**53, 2**53 + 3)]
        text = ("VERSION .7\nFIELDS x ids tag y z\nSIZE 4 8 8 4 4\n"
                "TYPE F I U F F\nCOUNT 1 2 1 1 1\nWIDTH 3\nHEIGHT 1\n"
                "POINTS 3\nDATA ascii\n"
                + "".join(f"{x} {a} {b} {t} 0 0\n" for x, a, b, t in rows))
        _, arrays = tio.read_pcd_arrays(text.encode())
        assert arrays["ids"].tolist() == [[a, b] for _, a, b, _ in rows]
        assert arrays["tag"].tolist() == [t for *_, t in rows]
        assert arrays["x"].tolist() == [0.0, 1.0, 2.0]

    def test_eight_byte_integer_label_is_exact(self):
        cloud = tio.read_pcd(self.one_label("label", "I8",
                                            "9223372036854775807"))
        assert cloud.face_label.tolist() == [2**63 - 1]
        blob = np.array(2**53 + 1, "<u8").tobytes()
        cloud = tio.read_pcd(self.one_label("label", "U8", blob, "binary"))
        assert cloud.face_label.tolist() == [2**53 + 1]

    @pytest.mark.parametrize("field", ["label", "intensity"])
    def test_label_past_int64_is_refused(self, field):
        for blob in (self.one_label(field, "F4", "1e30"),
                     self.one_label(field, "F8", "9223372036854775808"),
                     self.one_label(field, "U8",
                                    np.array(2**63, "<u8").tobytes(),
                                    "binary")):
            with pytest.raises(FieldRangeError, match=repr(field)):
                tio.read_pcd(blob)
        below = self.one_label(field, "F8", "9223372036854774784")
        assert tio.read_pcd(below).face_label.tolist() == [2**63 - 1024]

    @pytest.mark.parametrize("field", ["label", "intensity"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("data", ["ascii", "binary"])
    def test_non_finite_label_is_refused(self, field, value, data):
        # an unusable label is refused, not read as background
        blob = (value if data == "ascii"
                else np.array(float(value), "<f4").tobytes())
        with pytest.raises(FieldRangeError, match=repr(field)):
            tio.read_pcd(self.one_label(field, "F4", blob, data))

    def test_negative_label_is_clamped_to_zero(self):
        for value in ("-3.7", "-1e30"):
            cloud = tio.read_pcd(self.one_label("label", "F8", value))
            assert cloud.face_label.tolist() == [0]

    def test_missing_xyz(self):
        text = ("VERSION .7\nFIELDS x y label\nSIZE 4 4 4\nTYPE F F U\n"
                "COUNT 1 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA ascii\n1 2 0\n")
        with pytest.raises(MissingXyzError):
            tio.read_pcd(text.encode())

    def test_fuzzed_headers_raise_typed_errors(self):
        rng = np.random.default_rng(3)
        base = tio.write_pcd(random_cloud(rng, 20))
        junk = [b"", b"\x00\x01\x02", b"VERSION .7\n", b"DATA binary\n",
                b"not a pcd at all\n\n\n"]
        for blob in junk:
            with pytest.raises(TrussKitError):
                tio.read_pcd(blob)
        for _ in range(300):
            mutated = bytearray(base)
            for _ in range(rng.integers(1, 8)):
                pos = rng.integers(0, min(len(mutated), 180))
                mutated[pos] = rng.integers(0, 256)
            try:
                tio.read_pcd(bytes(mutated))
            except TrussKitError:
                pass   # typed rejection is the contract

    @pytest.mark.parametrize("name", MALFORMED_PCDS)
    def test_malformed_pcd_is_refused(self, name):
        blob, message = MALFORMED_PCDS[name]
        assert tio.read_pcd(_one_point_pcd()).points.shape == (1, 3)
        with pytest.raises(MalformedHeaderError) as err:
            tio.read_pcd(blob)
        assert str(err.value).startswith(message)

    def test_unsupported_data_mode(self):
        text = ("VERSION .7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                "COUNT 1 1 1\nWIDTH 0\nHEIGHT 0\nPOINTS 0\n"
                "DATA binary_compressed\n")
        with pytest.raises(MalformedHeaderError):
            tio.read_pcd(text.encode())


_HEADER = ["VERSION .7", "FIELDS x y z label", "SIZE 4 4 4 4",
           "TYPE F F F U", "COUNT 1 1 1 1", "WIDTH 3", "HEIGHT 1",
           "VIEWPOINT 0 0 0 1 0 0 0", "POINTS 3"]
# header lines a mutation may put in: bad values, lower-case keys, blanks
_OTHER_LINES = ["FIELDS x y z x", "SIZE 4 4 4", "TYPE F F F I", "COUNT 0 1 1 1",
                "WIDTH -1", "WIDTH x", "height 1", "VIEWPOINT 0 0 0 2 0 0 0",
                "POINTS", "POINTS 4", "DATA", "data ascii", "VERSION", "  ",
                "# note"]
_EOLS = ["\n", "\r", "\r\n"]
# line breaks of str.splitlines besides \n and \r
_OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"]
_LATIN1 = st.characters(min_codepoint=0, max_codepoint=255)


@st.composite
def header_windows(draw):
    """The latin-1 text of a PCD file's first 64 KiB: a header with random
    edits, comments, line ends and inner line breaks, its DATA line placed
    around the end of the parser's prefix or past it, and a random body."""
    lines = list(_HEADER)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(
            ["insert", "replace", "delete", "comment", "break"]))
        if kind == "insert":
            lines.insert(at, draw(st.sampled_from(_HEADER + _OTHER_LINES)))
        elif kind == "comment":
            lines.insert(at, "#" + draw(st.text(_LATIN1, max_size=40)))
        elif lines and at < len(lines):
            if kind == "replace":
                lines[at] = draw(st.sampled_from(_OTHER_LINES))
            elif kind == "delete":
                del lines[at]
            else:
                cut = draw(st.integers(0, len(lines[at])))
                lines[at] = (lines[at][:cut] + draw(st.sampled_from(
                    _OTHER_BREAKS)) + lines[at][cut:])
    data = draw(st.sampled_from(
        ["DATA binary", "DATA ascii", "DATA binary", "DATA binary_compressed",
         None]))
    head = "".join(line + draw(st.sampled_from(_EOLS)) for line in lines)
    tail = "" if data is None else data + draw(st.sampled_from(_EOLS))
    # a comment before DATA moves its line's end to the prefix's end plus
    # shift (a CRLF with shift 1 straddles the cut), or well past the prefix
    place = draw(st.sampled_from(["as is", "at the cut", "past the cut"]))
    pad_eol = draw(st.sampled_from(_EOLS))
    if place == "at the cut":
        width = (tio._HEAD_PREFIX + draw(st.integers(-4, 4)) - len(head)
                 - len(tail) - 1 - len(pad_eol))
    else:
        width = draw(st.integers(tio._HEAD_PREFIX, 3 * tio._HEAD_PREFIX)) \
            if place == "past the cut" else -1
    if width >= 0:
        head += "#" + "p" * width + pad_eol
    body = draw(st.one_of(st.binary(max_size=300),
                          st.binary(max_size=300).map(lambda b: b"\n" + b)))
    return (head + tail + body.decode("latin-1"))[:65536]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except MalformedHeaderError as exc:
        return type(exc), str(exc)


class TestHeaderPrefix:
    """``io._parse_header`` splits a short prefix of the header window
    first; it must read every header as splitting the whole window does."""

    @settings(max_examples=300, deadline=None)
    @given(text=header_windows())
    def test_same_header_offset_or_error_as_whole_window(self, text):
        assert _parse_outcome(tio._parse_header, text) == \
            _parse_outcome(parse_pcd_header_reference, text)

    @pytest.mark.parametrize("eol", _EOLS)
    @pytest.mark.parametrize("shift", range(-3, 4))
    def test_data_line_ending_at_the_cut(self, eol, shift):
        # the body starts with \n: after a DATA line ending in \r it is
        # that line's terminator's second half
        head = "".join(line + eol for line in _HEADER)
        data = "DATA binary" + eol
        width = tio._HEAD_PREFIX + shift - len(head) - len(data) - 1 - len(eol)
        text = head + "#" + "p" * width + eol + data + "\n\x00\x01\r\n"
        header, offset = tio._parse_header(text)
        assert (header, offset) == parse_pcd_header_reference(text)
        assert offset == tio._HEAD_PREFIX + shift + (eol == "\r")

    def test_header_past_the_window_is_refused(self):
        # the header is read from the first 64 KiB only
        cloud = random_cloud(np.random.default_rng(4), 3)
        blob = tio.write_pcd(cloud)
        long = b"VERSION .7\n#" + b"p" * 65536 + b"\n" + blob[len(b"VERSION .7\n"):]
        with pytest.raises(MalformedHeaderError, match="no DATA line found"):
            tio.read_pcd(long)
        fits = b"VERSION .7\n#" + b"p" * 60000 + b"\n" + blob[len(b"VERSION .7\n"):]
        assert np.array_equal(tio.read_pcd(fits).points, tio.read_pcd(blob).points)


class TestReadArraysOwnData:
    @pytest.mark.parametrize("mode", ["binary", "ascii"])
    def test_arrays_own_their_data(self, mode, tmp_path):
        cloud = random_cloud(np.random.default_rng(5), 7)
        path = tmp_path / "c.pcd"
        blob = tio.write_pcd(cloud)
        path.write_bytes(ascii_pcd(blob) if mode == "ascii" else blob)
        header, arrays = tio.read_pcd_arrays(path)
        assert list(arrays) == ["x", "y", "z", "label"]
        for name, arr in arrays.items():
            assert arr.base is None and arr.flags.writeable, name
            assert arr.flags.c_contiguous, name
            before = arr.copy()
            arr[:] = 0
            _, again = tio.read_pcd_arrays(path)
            assert np.array_equal(again[name], before), name


class TestLatencySidecar:
    def test_round_trip(self, tmp_path):
        pred = tmp_path / "scan_00001.pcd"
        payload = {"stages_ms": {"coarse": 1.5, "density": 0.25},
                   "total_ms": 2.125, "warnings": ["GroundNotFound: ..."]}
        tio.write_latency(pred, **payload)
        path = tmp_path / "scan_00001.latency.json"
        assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"
        assert tio.read_latency(pred) == payload

    def test_absent_sidecar_reads_none(self, tmp_path):
        assert tio.read_latency(tmp_path / "scan.pcd") is None


class TestCloudColumns:
    """The two cloud writers share one column layout: ``x y z``,
    ``label``, their own columns, and the sensor pose as the viewpoint."""

    @pytest.mark.parametrize("mode", ["binary", "ascii"])
    def test_bytes_equal_spelled_out_columns(self, mode):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 40)
        pred = rng.random(40) < 0.5
        p = cloud.points
        xyz = [("x", "F", 4, p[:, 0]), ("y", "F", 4, p[:, 1]),
               ("z", "F", 4, p[:, 2])]
        label = [("label", "U", 4, cloud.face_label)]
        vp = cloud.sensor_pose.viewpoint_tuple()
        pred_col = [("pred", "U", 1, pred.astype(np.uint8))]
        for blob, columns in ((tio.write_pcd(cloud), xyz + label),
                              (tio.write_prediction_pcd(cloud, pred),
                               xyz + label + pred_col)):
            spelled = tio.write_pcd_fields(columns, vp)
            if mode == "binary":
                assert blob == spelled
                continue
            # the ascii reader gives the spelled-out columns' ascii form
            # back as the writer's file
            header, arrays = tio.read_pcd_arrays(ascii_pcd(spelled))
            want_header, want = tio.read_pcd_arrays(blob)
            assert (header.fields, header.viewpoint) == \
                (want_header.fields, want_header.viewpoint)
            for name, column in want.items():
                assert arrays[name].dtype == column.dtype
                assert np.array_equal(arrays[name], column), name


class TestConfigValueForms:
    """Every config dataclass stores one form of each value: int fields
    hold ints, float fields floats."""

    def test_integral_spellings_fingerprint_equal(self):
        assert fingerprint(PipelineConfig(voxel_leaf=1)) == \
            fingerprint(PipelineConfig(voxel_leaf=1.0))
        loose = PipelineConfig(normal_k=30.0, ransac_iterations=100.0,
                               density_min_points=np.int64(10),
                               ransac_seed=1.0)
        exact = PipelineConfig(normal_k=30, ransac_iterations=100,
                               density_min_points=10, ransac_seed=1)
        assert loose == exact and hash(loose) == hash(exact)
        assert fingerprint(loose) == fingerprint(exact)
        assert type(loose.normal_k) is int
        assert tio.DatasetConfig(n_scans=2.0, seed=3.0) == \
            tio.DatasetConfig(n_scans=2, seed=3)

    @pytest.mark.parametrize("cls, field, value, message", [
        (PipelineConfig, "normal_k", 30.5, "an integer"),
        (PipelineConfig, "ransac_iterations", "100", "an integer"),
        (PipelineConfig, "density_min_points", float("nan"), "an integer"),
        (PipelineConfig, "ransac_seed", float("inf"), "an integer"),
        (PipelineConfig, "voxel_leaf", None, "a number"),
        (SensorConfig, "v_resolution", 8.5, "an integer"),
        (tio.DatasetConfig, "n_scans", 2.5, "an integer"),
        (TrussSpec, "node_counts", (2, 2.5, 3), "3 numbers"),
        (TrussSpec, "crossed", "no", "True, False, 0 or 1"),
        (TrussSpec, "crossed", 2, "True, False, 0 or 1"),
        (TrussSpec, "crossed", 1.0, "True, False, 0 or 1"),
        (TrussSpec, "crossed", None, "True, False, 0 or 1"),
    ])
    def test_other_values_are_refused(self, cls, field, value, message):
        with pytest.raises(InvalidSpecError,
                           match=f"^{field} must be {message}, not "):
            cls(**{field: value})

    STR_FIELDS = [(TrussSpec, "label_mode"), (PipelineConfig, "eigen_mode"),
                  (PipelineConfig, "stage_mode"), (tio.DatasetConfig, "out_dir")]

    def test_every_str_field_is_listed(self):
        assert {(cls, f.name) for cls in tio._SECTIONS.values()
                for f in dataclass_fields(cls) if f.type in ("str", str)} \
            == set(self.STR_FIELDS)

    @pytest.mark.parametrize("cls, field", STR_FIELDS)
    @pytest.mark.parametrize("value", [5, None, b"per_face", ("full",)])
    def test_str_fields_refuse_other_values(self, cls, field, value):
        with pytest.raises(InvalidSpecError,
                           match=f"^{field} must be a string, not "):
            cls(**{field: value})

    def test_bool_spellings_fingerprint_equal(self):
        from trusskit import synth
        specs = [TrussSpec(crossed=v) for v in (True, 1, np.True_, np.int64(1))]
        assert all(type(spec.crossed) is bool for spec in specs)
        assert {synth.spec_fingerprint(SceneSpec(structure=spec),
                                       SensorConfig()) for spec in specs} \
            == {"ecb0c70f58c75f78"}
        assert TrussSpec(crossed=0) == TrussSpec(crossed=np.False_)
        assert TrussSpec(crossed=0).crossed is False

    @pytest.mark.parametrize("config, spec_hash", [
        ("ortho", "121cdf09d143c551"), ("crossed", "fda7b9c1341d5c35"),
        ("training", "201dc74a171c1482")])
    def test_shipped_spec_hashes_hold(self, config, spec_hash):
        from trusskit import synth
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = tio.load_config(configs / f"{config}.cfg")
        assert synth.spec_fingerprint(cfg.scene, cfg.sensor) == spec_hash

    @pytest.mark.parametrize("config, digest", [
        ("ortho", "1d944f956129b81c"), ("crossed", "29d3e29c20914cdb"),
        ("training", "8ef48393d1ff91f6")])
    def test_shipped_config_fingerprints_hold(self, config, digest):
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = tio.load_config(configs / f"{config}.cfg")
        assert fingerprint(cfg) == digest
        # a sweep report's fingerprint: the variant's pipeline
        assert fingerprint(replace(
            cfg.pipeline, stage_mode="full", eigen_mode="hybrid")) \
            == "8ab527a49738052c"

    def test_integral_float_resolution_raycasts(self):
        from trusskit import synth
        sensor = SensorConfig(v_resolution=8.0, h_resolution=16.0)
        assert sensor == SensorConfig(v_resolution=8, h_resolution=16)
        scene = synth.build_scene(SceneSpec())
        cloud = synth.raycast_scan(scene, Pose((0.0, 0.0, 2.0)), sensor)
        assert 0 < len(cloud) <= 8 * 16

    # (class, field, value count) of every float and float-tuple field of
    # a config section's class and of Pose; a float field counts None
    FLOAT_FIELDS = [
        (cls, f.name, None if f.type == "float" else f.type.count("float"))
        for cls in (*tio._SECTIONS.values(), Pose)
        for f in dataclass_fields(cls)
        if f.type == "float" or f.type.startswith("tuple[float")]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -np.inf, np.float32("nan")])
    def test_non_finite_values_refused_by_the_classes(self, value):
        # a NaN slips through every `x <= 0` range check, so a library
        # caller is refused it as a config file is
        for cls, name, count in self.FLOAT_FIELDS:
            given = value if count is None else (1.0,) * (count - 1) + (value,)
            need = "a number" if count is None else f"{count} numbers"
            with pytest.raises(InvalidSpecError,
                               match=f"^{name} must be {need}, not "):
                cls(**{name: given})
        assert len(self.FLOAT_FIELDS) == 24 + 2

    @pytest.mark.parametrize("cls, field, value, message", [
        (PipelineConfig, "voxel_leaf", True, "a number"),
        (PipelineConfig, "voxel_leaf", "0.2", "a number"),
        (PipelineConfig, "voxel_leaf", b"0.2", "a number"),
        (SensorConfig, "noise_sigma", np.False_, "a number"),
        (PipelineConfig, "normal_k", True, "an integer"),
        (tio.DatasetConfig, "n_scans", np.True_, "an integer"),
        (TrussSpec, "node_counts", (2, True, 3), "3 numbers"),
        (SceneSpec, "sensor_position", ("0", 0.0, 2.0), "3 numbers"),
        (Pose, "translation", (0.0, 0.0, "2"), "3 numbers"),
        (Pose, "quaternion", (True, 0.0, 0.0, 0.0), "4 numbers"),
    ])
    def test_bools_and_strings_are_not_numbers(self, cls, field, value,
                                               message):
        with pytest.raises(InvalidSpecError,
                           match=f"^{field} must be {message}, not "):
            cls(**{field: value})

    def test_huge_int_is_exact(self, tmp_path):
        big = 2**64 + 1                  # float64 would round it to 2**64
        path = tmp_path / "run.cfg"
        path.write_text(f"[pipeline]\nransac_seed = {big}\n")
        for cfg in (tio.load_config(path).pipeline,
                    PipelineConfig(ransac_seed=big)):
            assert type(cfg.ransac_seed) is int and cfg.ransac_seed == big
        assert tio.loads_config(tio.dump_config(tio.load_config(path))) \
            .pipeline.ransac_seed == big

    @pytest.mark.parametrize("text", ["30.0", "3e1", " 30 "])
    def test_integral_spelling_in_a_file(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"[pipeline]\nnormal_k = {text}\n")
        cfg = tio.load_config(path).pipeline
        assert type(cfg.normal_k) is int and cfg.normal_k == 30
        assert fingerprint(cfg) == fingerprint(PipelineConfig(normal_k=30))

    @pytest.mark.parametrize("key, text, message", [
        ("pipeline.voxel_leaf", "true", "a number, not True"),
        ("pipeline.voxel_leaf", "0.2.1", "a number, not '0.2.1'"),
        ("pipeline.normal_k", "yes", "an integer, not True"),
        ("pipeline.normal_k", "30.5", "an integer, not 30.5"),
        ("truss.crossed", "2", "True, False, 0 or 1, not 2"),
        ("truss.node_counts", "2 2", "3 numbers, not (2, 2)"),
        ("scene.sensor_position", "0 0 nan", "3 numbers, not (0, 0, nan)"),
        ("sensor.noise_sigma", "", "a number, not ()"),
    ])
    def test_file_value_refusal_names_key(self, key, text, message):
        section, name = key.split(".")
        with pytest.raises(ConfigTypeError) as info:
            tio.loads_config("", overrides={key: text})
        assert str(info.value) == f"[{section}] {name}: must be {message}"

    def test_each_value_is_checked_once(self, monkeypatch):
        # the loader hands each section's tokens to its dataclass, whose
        # canonicalize is the one check of each typed field
        calls = []
        check = geom.field_value
        for module in (geom, tio):       # wherever the rule is called from
            if hasattr(module, "field_value"):
                monkeypatch.setattr(module, "field_value", lambda *args:
                                    calls.append(args) or check(*args))
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = tio.load_config(configs / "training.cfg")
        built = (cfg.sensor, cfg.scene, cfg.scene.boxes, cfg.pipeline,
                 cfg.dataset)
        assert len(calls) == sum(len(geom._typed_fields(type(spec)))
                                 for spec in built) == 37

    def test_type_refusal_names_its_field(self):
        import pickle
        with pytest.raises(FieldTypeError) as info:
            TrussSpec(node_counts=(2, 2))
        exc = info.value
        assert (exc.field, exc.reason) == ("node_counts",
                                           "must be 3 numbers, not (2, 2)")
        assert str(exc) == "node_counts must be 3 numbers, not (2, 2)"
        again = pickle.loads(pickle.dumps(exc))
        assert (type(again), str(again), again.field) == \
            (FieldTypeError, str(exc), "node_counts")

    def test_sections_are_checked_in_build_order(self):
        # each section's dataclass checks its own values, so a range error
        # of [sensor] is found before a type error of a later [pipeline]
        text = "[pipeline]\nnormal_k = x\n[sensor]\nv_resolution = 0\n"
        with pytest.raises(ConfigRangeError,
                           match=r"^\[sensor\] resolutions must be >= 1$"):
            tio.loads_config(text)

    @pytest.mark.parametrize("text, crossed", [
        ("true", True), ("Yes", True), ("ON", True), ("1", True),
        ("false", False), ("no", False), ("off", False), ("0", False)])
    def test_bool_words(self, text, crossed):
        cfg = tio.loads_config(f"[truss]\ncrossed = {text}\n")
        assert cfg.scene.structure.crossed is crossed


class TestPlyExport:
    def test_perfect_prediction_colors(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 40)
        truth = cloud.truss_mask
        text = tio.export_ply_colored(cloud, truth, truth)
        body = text.split("end_header\n")[1].strip().splitlines()
        colors = {tuple(int(v) for v in line.split()[3:]) for line in body}
        assert colors <= {(0, 255, 0), (0, 0, 0)}

    def test_inverted_prediction_colors(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 40)
        truth = cloud.truss_mask
        text = tio.export_ply_colored(cloud, ~truth, truth)
        body = text.split("end_header\n")[1].strip().splitlines()
        colors = {tuple(int(v) for v in line.split()[3:]) for line in body}
        assert colors <= {(255, 0, 0), (255, 165, 0)}

    def test_vertex_count_and_no_truth(self, tmp_path):
        rng = np.random.default_rng(8)
        for n in (1, 17, 230):
            cloud = random_cloud(rng, n)
            pred = rng.random(n) < 0.5
            path = tmp_path / f"v{n}.ply"
            tio.export_ply_colored(cloud, pred, None, path)
            text = path.read_text()
            assert f"element vertex {n}" in text
            assert len(text.split("end_header\n")[1].strip().splitlines()) == n

    def test_length_mismatch(self):
        cloud = LabeledCloud(np.zeros((3, 3)))
        with pytest.raises(LengthMismatchError):
            tio.export_ply_colored(cloud, [True] * 2)


class TestConfig:
    def test_empty_file_all_defaults(self):
        cfg = tio.loads_config("")
        assert cfg.pipeline.voxel_leaf == 0.1
        assert cfg.pipeline.ransac_threshold == 0.5
        assert cfg.pipeline.density_radius == 0.25
        assert cfg.pipeline.density_min_points == 10
        assert cfg.sensor.v_resolution == 128
        assert cfg.sensor.h_resolution == 512
        assert cfg.sensor.noise_sigma == 0.008
        assert cfg.scene.structure is None

    def test_range_error_names_key(self):
        with pytest.raises(ConfigRangeError) as err:
            tio.loads_config("[pipeline]\nratio_threshold = 1.5\n")
        assert "ratio_threshold" in str(err.value)

    def test_unknown_key_named(self):
        with pytest.raises(UnknownKeyError) as err:
            tio.loads_config("[pipeline]\nvoxel_lief = 0.1\n")
        assert "voxel_lief" in str(err.value)
        with pytest.raises(UnknownKeyError):
            tio.loads_config("[nonsense]\nx = 1\n")

    @pytest.mark.parametrize("key, value", [("eigen_mode", "ratio"),
                                            ("stage_mode", "full")])
    def test_variant_is_not_a_key(self, tmp_path, key, value):
        # the variant is chosen per command (segment --mode, sweep); the
        # field stays for library run_pipeline calls
        path = tmp_path / "run.cfg"
        path.write_text(f"[pipeline]\n{key} = {value}\n")
        with pytest.raises(UnknownKeyError,
                           match=rf"^\[pipeline\] unknown key '{key}'$"):
            tio.load_config(path)
        pipeline = PipelineConfig(eigen_mode="ratio", stage_mode="without_fine")
        text = tio.dump_config(tio.RunConfig(pipeline=pipeline))
        assert key not in text
        assert tio.loads_config(text).pipeline == PipelineConfig()

    def test_type_error(self):
        with pytest.raises(ConfigTypeError):
            tio.loads_config("[pipeline]\nnormal_k = thirty\n")
        with pytest.raises(ConfigTypeError):
            tio.loads_config("[truss]\nnode_counts = 2 2\n")

    def test_readme_lists_every_key(self):
        # the README config table names each section's keys in its second
        # column; a field added to a config dataclass must appear there
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            m = re.fullmatch(r"`\[(\w+)\]`", cells[0])
            if m and len(cells) == 3:
                listed[m[1]] = re.findall(r"`(\w+)`", cells[1])
        assert listed == {section: list(keys)
                          for section, keys in tio._KEYS.items()}

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, text):
        # a NaN slips through every `x <= 0` range check, so the parser
        # refuses non-finite numbers for every float and vector key
        checked = 0
        for section, keys in tio._KEYS.items():
            for key, kind in keys.items():
                items = get_args(kind)
                if kind is float:
                    value = text
                elif items and items[0] is float:
                    value = " ".join(["1.0"] * (len(items) - 1) + [text])
                else:
                    continue
                with pytest.raises(ConfigTypeError,
                                   match=rf"^\[{section}\] {key}: "):
                    tio.loads_config("", overrides={f"{section}.{key}": value})
                checked += 1
        assert checked == 24

    @settings(max_examples=60, deadline=None)
    @given(cfg=st.deferred(lambda: _run_configs()), out_dir=st.text())
    @example(cfg=tio.RunConfig(), out_dir=" runs ")
    @example(cfg=tio.RunConfig(), out_dir="a\nb")
    @example(cfg=tio.RunConfig(), out_dir="runs/scan set #1; 100%")
    def test_load_inverts_dump(self, cfg, out_dir):
        # out_dir round-trips exactly, or DatasetConfig refuses it
        try:
            dataset = replace(cfg.dataset, out_dir=out_dir)
        except InvalidSpecError:
            assert not out_dir.isprintable() or out_dir != out_dir.strip()
            return
        cfg = replace(cfg, dataset=dataset)
        assert tio.loads_config(tio.dump_config(cfg)) == cfg

    @pytest.mark.parametrize("out_dir", [" runs ", "runs\n", "a\nb", "a\tb"])
    def test_out_dir_that_cannot_round_trip_is_refused(self, out_dir):
        with pytest.raises(InvalidSpecError, match="out_dir"):
            tio.DatasetConfig(out_dir=out_dir)
        # loading strips the value; what is left inside is still checked
        if not out_dir.strip().isprintable():
            with pytest.raises(ConfigRangeError,
                               match=r"^\[dataset\] out_dir"):
                tio.loads_config("", overrides={"dataset.out_dir": out_dir})

    def test_full_round_trip_idempotent(self, tmp_path):
        text = """
[sensor]
v_resolution = 32
h_resolution = 128
noise_sigma = 0.004

[truss]
node_counts = 6 5 10
crossed = true
label_mode = per_bar

[scene]
tree_count = 7
seed = 3

[boxes]
count = 12

[pipeline]
rg_min_cluster = 20

[dataset]
n_scans = 5
seed = 11
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = tio.load_config(path)
        assert cfg.scene.structure.node_counts == (6, 5, 10)
        assert cfg.scene.structure.crossed is True
        assert cfg.scene.boxes.count == 12
        assert cfg.pipeline.rg_min_cluster == 20
        again = tio.loads_config(tio.dump_config(cfg))
        assert again == cfg
        third = tio.loads_config(tio.dump_config(again))
        assert third == cfg

    def test_overrides_validated(self):
        cfg = tio.loads_config("", overrides={"pipeline.normal_k": "12"})
        assert cfg.pipeline.normal_k == 12
        with pytest.raises(UnknownKeyError):
            tio.loads_config("", overrides={"pipeline.nope": "1"})
        with pytest.raises(ConfigRangeError):
            tio.loads_config("", overrides={"sensor.v_resolution": "0"})


def _ordered(strategy, n=2):
    """n draws of ``strategy`` as an ascending tuple."""
    return st.lists(strategy, min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v)))


def _bounds_pair(lo_strategy, hi_strategy):
    """(min corner, max corner) tuples with min <= max per axis."""
    return st.tuples(lo_strategy, hi_strategy).map(
        lambda ab: (tuple(map(min, *ab)), tuple(map(max, *ab))))


@st.composite
def _run_configs(draw):
    """Valid RunConfigs with finite values and an empty ``out_dir``."""
    pos = st.floats(1e-6, 1e6)
    real = st.floats(-1e6, 1e6)
    seed = st.integers(0, 2**63 - 1)
    vec = lambda n: st.tuples(*[real] * n)
    min_range, max_range = draw(st.lists(pos, min_size=2, max_size=2,
                                         unique=True).map(sorted))
    sensor = SensorConfig(
        draw(st.integers(1, 4096)), draw(st.integers(1, 4096)), min_range,
        max_range, draw(st.floats(0.0, 180.0, exclude_min=True)),
        draw(st.floats(0.0, 360.0, exclude_min=True)),
        draw(st.floats(0.0, 1e3)))
    truss = None
    if draw(st.booleans()):
        length = draw(pos)
        truss = TrussSpec(draw(st.tuples(*[st.integers(2, 50)] * 3)), length,
                          draw(st.floats(0.0, length, exclude_min=True,
                                         exclude_max=True)),
                          draw(st.booleans()),
                          draw(st.sampled_from(["per_bar", "per_face"])))
    boxes = None
    if draw(st.booleans()):
        box_lo, box_hi = draw(_bounds_pair(vec(3), vec(3)))
        boxes = BoxFieldSpec(draw(st.integers(0, 500)), draw(_ordered(pos)),
                             draw(_ordered(pos)), box_lo, box_hi)
    tree_lo, tree_hi = draw(_bounds_pair(vec(2), vec(2)))
    scene = SceneSpec(truss, draw(st.floats(0.0, 1e3)), draw(pos),
                      draw(st.integers(0, 500)), draw(_ordered(pos)),
                      tree_lo, tree_hi, boxes, draw(seed), draw(vec(3)))
    pipeline = PipelineConfig(
        draw(pos), draw(pos), draw(st.integers(1, 10**6)), draw(seed),
        draw(st.integers(3, 200)),
        draw(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True)),
        draw(st.floats(0.0, 1e3)), draw(st.integers(1, 10**6)),
        # the default variant: stage_mode and eigen_mode are not keys
        ratio_threshold=draw(st.floats(0.0, 1.0, exclude_min=True)),
        magnitude_threshold=draw(pos), density_radius=draw(pos),
        density_min_points=draw(st.integers(0, 10**6)))
    dataset = tio.DatasetConfig("", draw(st.integers(1, 10**6)), draw(seed))
    return tio.RunConfig(sensor, scene, pipeline, dataset)
