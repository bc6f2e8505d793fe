"""Serialization layer: canonical JSON, content hashes, CSV tables, field I/O."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from lopstokes.config import GridSpec, RunConfig
from lopstokes.params import FluidParams, Sector
from lopstokes.reports import (
    canonical_json,
    config_hash,
    ensure_out_dir,
    jsonable,
    read_field,
    scan_rows,
    write_class_csv,
    write_decay_csv,
    write_field,
    write_height_csv,
    write_json,
    write_residual_csv,
    write_scan_csv,
)
from lopstokes.transform import PhysicalField

REF = FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)


class TestJsonable:
    def test_complex(self):
        assert jsonable(1.0 + 2.0j) == {"re": 1.0, "im": 2.0}
        assert jsonable(np.complex128(3 - 4j)) == {"re": 3.0, "im": -4.0}

    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(0.5)) == 0.5
        assert isinstance(jsonable(np.int64(7)), int)
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert jsonable(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_containers(self):
        out = jsonable({"a": (1, 2), 3: None, "b": [True, "x"]})
        assert out == {"a": [1, 2], "3": None, "b": [True, "x"]}

    def test_rejects_unknown(self):
        with pytest.raises(TypeError, match="not JSON-serializable"):
            jsonable({1, 2})


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_complex_embedding(self):
        assert canonical_json(1 + 2j) == '{"im":2.0,"re":1.0}'

    def test_insert_order_invariance(self):
        x = {"p": 1, "q": {"r": 2, "s": 3}}
        y = {"q": {"s": 3, "r": 2}, "p": 1}
        assert canonical_json(x) == canonical_json(y)


class TestConfigHash:
    def test_format_and_stability(self):
        h = config_hash(RunConfig())
        assert re.fullmatch(r"[0-9a-f]{12}", h)
        assert config_hash(RunConfig()) == h

    def test_ignores_where_and_how_fast(self):
        a = config_hash(RunConfig(out_dir="x"))
        b = config_hash(RunConfig(out_dir="y"))
        assert a == b

    def test_sensitive_to_content(self):
        assert config_hash(RunConfig(seed=1)) != config_hash(RunConfig(seed=2))
        assert (config_hash(RunConfig(), extra={"scale": 10.0})
                != config_hash(RunConfig()))


class TestWriteJson:
    def test_deterministic_bytes(self, tmp_path):
        obj = {"z": 1 + 1j, "a": [np.float64(0.25)]}
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_json(str(p1), obj)
        write_json(str(p2), obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        back = json.loads(p1.read_text())
        assert back["z"] == {"re": 1.0, "im": 1.0}
        assert back["a"] == [0.25]


class TestScanRows:
    def test_structure_and_order(self):
        grid = GridSpec(lam_min=1.0, lam_max=10.0, lam_per_decade=1, n_angles=3,
                        a_min=1.0, a_max=10.0, a_per_decade=1)
        sector = Sector(epsilon=math.pi / 4)
        rows = list(scan_rows(REF, sector, grid))
        assert len(rows) == 2 * 3 * 2
        span = math.pi - math.pi / 4
        assert rows[0][0] == pytest.approx(math.cos(-span), rel=1e-12)
        assert rows[0][1] == pytest.approx(math.sin(-span), rel=1e-12)
        assert rows[0][2] == pytest.approx(1.0)
        for row in rows:
            assert len(row) == 5
            assert row[3] > 0.0 and row[4] > 0.0


class _StubClassReport:
    def __init__(self, name, rows):
        self.name = name
        self._rows = rows

    def rows(self):
        return self._rows


class _StubDecayReport:
    @staticmethod
    def to_rows():
        return [(0.5, 1.25, 4), (1.0, 0.75, 9)]


class TestCsvWriters:
    def test_scan_csv(self, tmp_path):
        p = tmp_path / "scan.csv"
        write_scan_csv(str(p), [(1.0, -0.5, 2.0, 0.1, 1.25)])
        lines = p.read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,A,abs_detL,ratio"
        assert lines[1] == "1.0,-0.5,2.0,0.1,1.25"

    def test_height_csv(self, tmp_path):
        p = tmp_path / "height.csv"
        write_height_csv(str(p), [1e-4, 1e-3], [0.5, 0.25])
        lines = p.read_text().splitlines()
        assert lines[0] == "lam_mag,min_ratio"
        assert lines[1] == "0.0001,0.5"
        assert len(lines) == 3

    def test_class_csv(self, tmp_path):
        p = tmp_path / "class.csv"
        reports = [_StubClassReport("t_plus", [((0, 0), 0, 1.0, 1.1),
                                               ((1, 0), 1, 0.5, float("nan"))])]
        write_class_csv(str(p), reports)
        lines = p.read_text().splitlines()
        assert lines[0] == "symbol,kappa_multi_index,ell,constant,refinement_drift"
        assert lines[1] == "t_plus,00,0,1.0,1.1"
        assert lines[2] == "t_plus,10,1,0.5,nan"

    def test_decay_csv(self, tmp_path):
        p = tmp_path / "decay.csv"
        write_decay_csv(str(p), _StubDecayReport())
        lines = p.read_text().splitlines()
        assert lines[0] == "shell_radius,sup_weighted,n_points"
        assert lines[1] == "0.5,1.25,4"
        assert lines[2] == "1.0,0.75,9"

    def test_residual_csv(self, tmp_path):
        p = tmp_path / "res.csv"
        write_residual_csv(str(p), (16,), {(3,): (1e-12, 2e-13),
                                           (1,): (5e-13, 1e-14)})
        lines = p.read_text().splitlines()
        assert lines[0] == "k0,ode_residual,interface_residual"
        # sorted by mode index
        assert lines[1].startswith("1,5e-13")
        assert lines[2].startswith("3,1e-12")

    def test_residual_csv_2d_header(self, tmp_path):
        p = tmp_path / "res2.csv"
        write_residual_csv(str(p), (16, 16), {(0, 1): (0.0, 0.0)})
        assert p.read_text().splitlines()[0] == "k0,k1,ode_residual,interface_residual"


class TestFieldIO:
    def _field(self, shape=(16,), n_levels=2):
        rng = np.random.default_rng(11)
        samples = (rng.standard_normal((n_levels,) + shape)
                   + 1j * rng.standard_normal((n_levels,) + shape))
        box = tuple(2.0 * math.pi for _ in shape)
        levels = tuple(0.5 * i for i in range(n_levels))
        return PhysicalField(box_lengths=box, grid_shape=shape,
                             x_levels=levels, samples=samples)

    def test_roundtrip_1d(self, tmp_path):
        field = self._field()
        base = str(tmp_path / "u_plus_1")
        csv_path, json_path = write_field(base, field, 2.0 + 1.5j, REF, "u_plus_1")
        assert csv_path.endswith(".csv") and json_path.endswith(".json")
        header, back = read_field(base)
        assert header["name"] == "u_plus_1"
        assert header["lambda"] == {"re": 2.0, "im": 1.5}
        assert header["fluid"]["rho_minus"] == 2.0
        assert back.box_lengths == field.box_lengths
        assert back.x_levels == field.x_levels
        # repr round-trips doubles exactly
        assert np.array_equal(back.samples, field.samples)

    def test_roundtrip_2d(self, tmp_path):
        field = self._field(shape=(16, 16), n_levels=1)
        base = str(tmp_path / "pressure")
        write_field(base, field, -1.0j, REF, "pressure")
        _, back = read_field(base)
        assert np.array_equal(back.samples, field.samples)

    def test_deterministic_bytes(self, tmp_path):
        field = self._field()
        b1 = str(tmp_path / "one")
        b2 = str(tmp_path / "two")
        write_field(b1, field, 1.0 + 0j, REF, "f")
        write_field(b2, field, 1.0 + 0j, REF, "f")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_column_mismatch(self, tmp_path):
        field = self._field()
        base = str(tmp_path / "bad")
        write_field(base, field, 1.0 + 0j, REF, "bad")
        csv_file = tmp_path / "bad.csv"
        txt = csv_file.read_text().splitlines()
        txt[0] = "level,i,j,re,im"
        csv_file.write_text("\n".join(txt) + "\n")
        with pytest.raises(ValueError, match="columns"):
            read_field(base)


class TestEnsureOutDir:
    def test_creates_and_idempotent(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert ensure_out_dir(str(target)) == str(target)
        assert target.is_dir()
        assert ensure_out_dir(str(target)) == str(target)
