"""Serialization layer: canonical JSON, content hashes, CSV tables, field I/O."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lopstokes.config import GridSpec, RunConfig, config_document
from lopstokes.errors import ConfigError
from lopstokes.lopatinski import det_ratios, scan_lower_bound
from lopstokes.params import FluidParams, Sector
from lopstokes import reports
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
    write_scan_rows,
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

    def test_non_finite_floats_become_strings(self):
        out = jsonable({"a": math.nan, "b": np.float64(math.inf), "c": -math.inf,
                        "z": complex(math.inf, 0.5), "x": 1.5})
        assert out == {"a": "nan", "b": "inf", "c": "-inf",
                       "z": {"re": "inf", "im": 0.5}, "x": 1.5}


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

    def test_default_tag_pinned(self):
        # the tag every default-config report is named by
        assert config_hash(RunConfig(), extra={"tolerance_scale": 1.0}) == "e2bc2fd638e1"

    def test_hashlib_fallback_gives_the_same_tag(self):
        # with the builtin sha256 modules blocked the tag comes from hashlib,
        # and it is the same tag, hashlib's sha256 of the canonical document
        code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "from lopstokes.config import RunConfig; "
                "from lopstokes.reports import config_hash; "
                "print(config_hash(RunConfig(), extra={'tolerance_scale': 1.0}), "
                "'_hashlib' in sys.modules)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(reports.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        doc = {**config_document(RunConfig()), "tolerance_scale": 1.0}
        want = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:12]
        assert want == "e2bc2fd638e1"
        assert out.stdout.split() == [want, "True"]


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

    def test_strict_json_on_non_finite(self, tmp_path):
        # NaN and +-Infinity literals are not JSON; a strict parser must
        # read every report
        path = tmp_path / "r.json"
        write_json(str(path), {"drift": [math.nan, math.inf, -math.inf, 2.0]})

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")

        assert json.loads(path.read_text(), parse_constant=reject) == {
            "drift": ["nan", "inf", "-inf", 2.0]}


class TestScanRows:
    def test_structure_and_order(self, tmp_path):
        grid = GridSpec(lam_min=1.0, lam_max=10.0, lam_per_decade=1, n_angles=3,
                        a_min=1.0, a_max=10.0, a_per_decade=1)
        sector = Sector(epsilon=math.pi / 4)
        p = tmp_path / "scan.csv"
        rep = scan_lower_bound(REF, sector, grid, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,A,abs_detL,ratio"
        assert len(lines) == 1 + 12
        re_lam, im_lam, a, absdet, ratio = np.array(
            [[float(c) for c in line.split(",")] for line in lines[1:]]).T
        lam = re_lam + 1j * im_lam
        # grid order: magnitude, then angle, then A
        want_lam, want_a = grid.points(sector.epsilon)
        assert np.array_equal(lam, want_lam) and np.array_equal(a, want_a)
        span = math.pi - math.pi / 4
        assert lam[0].real == pytest.approx(math.cos(-span), rel=1e-12)
        assert lam[0].imag == pytest.approx(math.sin(-span), rel=1e-12)
        assert a[0] == pytest.approx(1.0)
        assert np.all(absdet > 0.0) and np.all(ratio > 0.0)
        assert rep.omega == ratio.min()
        assert [np.array_equal(c, w) for c, w in zip(
            (absdet, ratio), det_ratios(REF, want_lam, want_a))] == [True, True]
        assert p.read_text() == lines[0] + "\n" + scan_rows(lam, a, absdet, ratio)


class _StubClassReport:
    def __init__(self, name, rows):
        self.name = name
        self._rows = rows

    def rows(self):
        return self._rows


class _StubDecayReport:
    shells = [(0.5, 1.25, 4), (1.0, 0.75, 9)]


class TestCsvWriters:
    def test_scan_csv(self, tmp_path):
        p = tmp_path / "scan.csv"
        write_scan_rows(str(p), [scan_rows([1.0 - 0.5j], [2.0], [0.1], [1.25])])
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
        write_residual_csv(str(p), (16,), [1, 3], [(5e-13, 1e-14), (1e-12, 2e-13)])
        lines = p.read_text().splitlines()
        assert lines[0] == "k0,ode_residual,interface_residual"
        assert lines[1].startswith("1,5e-13")
        assert lines[2].startswith("3,1e-12")

    def test_residual_csv_2d_header(self, tmp_path):
        p = tmp_path / "res2.csv"
        write_residual_csv(str(p), (16, 16), [1], [(0.0, 0.0)])
        assert p.read_text().splitlines()[0] == "k0,k1,ode_residual,interface_residual"


class TestGoldenCsvBytes:
    """Exact bytes of every CSV writer on awkward values (signed zero, nan,
    infinities, the smallest subnormal, 1e16, numpy integer columns, strings
    that need quoting, no rows), as csv.writer wrote them with repr cells."""

    def test_signed_zeros_and_nan_payloads(self, tmp_path):
        # each distinct float is formatted once, keyed by its bit pattern: a
        # key by value would merge 0.0 with -0.0 and never match a nan
        bits = np.array([0x0, 0x8000000000000000, 0x7FF8000000000001, 0x8000000000000000,
                         0x7FF8000000000000, 0x0, 0xFFF8000000000000, 0x7FF8000000000001],
                        dtype=np.uint64)
        col = bits.view(np.float64)
        lam = np.empty(col.size, dtype=np.complex128)
        lam.real, lam.imag = col, col[::-1]
        p = tmp_path / "scan.csv"
        write_scan_rows(str(p), [scan_rows(lam, col[::-1], col, col)])
        assert p.read_bytes() == (b"re_lambda,im_lambda,A,abs_detL,ratio\n"
                                  b"0.0,nan,nan,0.0,0.0\n"
                                  b"-0.0,nan,nan,-0.0,-0.0\n"
                                  b"nan,0.0,0.0,nan,nan\n"
                                  b"-0.0,nan,nan,-0.0,-0.0\n"
                                  b"nan,-0.0,-0.0,nan,nan\n"
                                  b"0.0,nan,nan,0.0,0.0\n"
                                  b"nan,-0.0,-0.0,nan,nan\n"
                                  b"nan,0.0,0.0,nan,nan\n")

    def test_class_symbols_quoted(self, tmp_path):
        p = tmp_path / "class.csv"
        write_class_csv(str(p), [
            _StubClassReport('P"m,1', [((), 0, 1.0, 0.5), ((1, 0), 1, 1.0, -0.0)]),
            _StubClassReport("K", [((0, 1), 0, 0.5, 0.0)]),
            _StubClassReport("a\nb", [((1, 1), 1, 0.5, math.nan)])])
        assert p.read_bytes() == (b"symbol,kappa_multi_index,ell,constant,refinement_drift\n"
                                  b'"P""m,1",,0,1.0,0.5\n'
                                  b'"P""m,1",10,1,1.0,-0.0\n'
                                  b"K,01,0,0.5,0.0\n"
                                  b'"a\nb",11,1,0.5,nan\n')

    def test_matches_the_per_cell_writer(self, tmp_path):
        # random rows over a small pool of awkward values, against csv.writer
        # with a repr per cell, the writer the column formatting replaced
        rng = np.random.default_rng(3)
        pool = np.array([0x0, 0x8000000000000000, 0x7FF8000000000001, 0x7FF8000000000000,
                         0xFFF8000000000000, 0x7FF0000000000000, 0x1, 0x3FB999999999999A],
                        dtype=np.uint64).view(np.float64)
        names = ["K", 'P"m,1', "a\nb", "", " t_plus "]
        rows = [(names[i], "".join(map(str, rng.integers(0, 3, k))), str(ell), c, d)
                for i, k, ell, c, d in zip(rng.integers(0, len(names), 300),
                                           rng.integers(0, 3, 300), rng.integers(0, 2, 300),
                                           rng.choice(pool, 300), rng.choice(pool, 300))]
        reports = [_StubClassReport(name, [r[1:] for r in rows if r[0] == name])
                   for name in names]
        p = tmp_path / "class.csv"
        write_class_csv(str(p), reports)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("symbol", "kappa_multi_index", "ell", "constant", "refinement_drift"))
        w.writerows((rep.name, k, ell, repr(float(c)), repr(float(d)))
                    for rep in reports for k, ell, c, d in rep.rows())
        assert p.read_bytes() == buf.getvalue().encode()

    def test_no_rows_writes_the_header(self, tmp_path):
        class Empty:
            shells = []

        writers = {
            "scan": (lambda p: write_scan_rows(p, [scan_rows([], [], [], [])]),
                     b"re_lambda,im_lambda,A,abs_detL,ratio\n"),
            "height": (lambda p: write_height_csv(p, [], []), b"lam_mag,min_ratio\n"),
            "class": (lambda p: write_class_csv(p, []),
                      b"symbol,kappa_multi_index,ell,constant,refinement_drift\n"),
            "decay": (lambda p: write_decay_csv(p, Empty()),
                      b"shell_radius,sup_weighted,n_points\n"),
            "residual": (lambda p: write_residual_csv(p, (16, 16), [], np.zeros((0, 2))),
                         b"k0,k1,ode_residual,interface_residual\n"),
        }
        # an empty class table has no columns at all (columns == ()), the
        # others have columns of no rows
        for name, (write, want) in writers.items():
            p = tmp_path / f"{name}.csv"
            write(str(p))
            assert p.read_bytes() == want, name

    def test_blocks_match_the_per_cell_writer(self, tmp_path):
        # 2 blocks and 3 rows: awkward values repeat in every block and sit on
        # the block edges, next to values that occur once
        n = 2 * reports._CSV_BLOCK + 3
        rng = np.random.default_rng(11)
        pool = np.array([0x0, 0x8000000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x3FB999999999999A],
                        dtype=np.uint64).view(np.float64)
        cols = [rng.choice(pool, n) for _ in range(4)]
        cols.append(rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n))
        edges = [0, reports._CSV_BLOCK - 1, reports._CSV_BLOCK, 2 * reports._CSV_BLOCK - 1,
                 2 * reports._CSV_BLOCK, n - 1]
        for col in cols:
            col[edges] = pool[:len(edges)]
        lam = np.empty(n, dtype=np.complex128)
        lam.real, lam.imag = cols[0], cols[1]
        p = tmp_path / "scan.csv"
        write_scan_rows(str(p), [scan_rows(lam, cols[2], cols[3], cols[4])])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("re_lambda", "im_lambda", "A", "abs_detL", "ratio"))
        w.writerows(tuple(map(repr, row)) for row in zip(*(c.tolist() for c in cols)))
        assert p.read_bytes() == buf.getvalue().encode()

    def test_memory_is_flat_in_the_row_count(self, tmp_path):
        # the column writers hold the text of one block at a time, so 4x the
        # rows stay within 1.5x the traced peak; formatting all rows at once
        # took 4x
        rng = np.random.default_rng(12)
        p = str(tmp_path / "height.csv")

        def peak(n: int) -> int:
            cols = [rng.standard_normal(n) for _ in range(2)]
            tracemalloc.start()
            try:
                write_height_csv(p, *cols)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2 * reports._CSV_BLOCK
        peak(n)    # warm-up
        assert peak(4 * n) <= 1.5 * peak(n)

    def test_unequal_columns_raise(self, tmp_path):
        # zip would write the rows of the shortest column and drop the rest
        p = tmp_path / "height.csv"
        with pytest.raises(ValueError, match="unequal length"):
            write_height_csv(str(p), [1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="unequal length"):
            write_scan_rows(str(p), [scan_rows(np.zeros(reports._CSV_BLOCK + 1), np.zeros(5),
                                               np.zeros(5), np.zeros(5))])
        assert not p.exists()

    def test_scan(self, tmp_path):
        p = tmp_path / "scan.csv"
        write_scan_rows(str(p), [scan_rows(
            np.array([complex(-0.0, math.nan), complex(0.1, -math.inf)]),
            np.array([math.inf, 1.0]), [5e-324, -0.0], np.array([1e16, math.nan]))])
        assert p.read_bytes() == (b"re_lambda,im_lambda,A,abs_detL,ratio\n"
                                  b"-0.0,nan,inf,5e-324,1e+16\n"
                                  b"0.1,-inf,1.0,-0.0,nan\n")

    def test_height(self, tmp_path):
        p = tmp_path / "height.csv"
        write_height_csv(str(p), np.array([5e-324, 1e16, math.inf]), [-0.0, math.nan, 0.1])
        assert p.read_bytes() == b"lam_mag,min_ratio\n5e-324,-0.0\n1e+16,nan\ninf,0.1\n"

    def test_class(self, tmp_path):
        p = tmp_path / "class.csv"
        write_class_csv(str(p), [
            _StubClassReport("A*R+NN/q", [("00", 0, 5e-324, math.nan),
                                          ("11", 1, 1e16, math.inf)]),
            _StubClassReport("K", [((1, 0), 0, -0.0, -0.0)])])
        assert p.read_bytes() == (b"symbol,kappa_multi_index,ell,constant,refinement_drift\n"
                                  b"A*R+NN/q,00,0,5e-324,nan\n"
                                  b"A*R+NN/q,11,1,1e+16,inf\n"
                                  b"K,10,0,-0.0,-0.0\n")

    def test_decay(self, tmp_path):
        class Report:
            shells = [(-0.0, 1e16, np.int64(4)), (5e-324, math.nan, np.int64(0))]

        p = tmp_path / "decay.csv"
        write_decay_csv(str(p), Report())
        assert p.read_bytes() == (b"shell_radius,sup_weighted,n_points\n"
                                  b"-0.0,1e+16,4\n5e-324,nan,0\n")

    def test_residual(self, tmp_path):
        p = tmp_path / "res.csv"
        # flat C-order mode indices: (0, 2), (0, 10), (3, 1)
        write_residual_csv(str(p), (16, 16), np.array([2, 10, 49]),
                           [(-0.0, 1e16), (math.inf, 0.1), (math.nan, 5e-324)])
        assert p.read_bytes() == (b"k0,k1,ode_residual,interface_residual\n"
                                  b"0,2,-0.0,1e+16\n0,10,inf,0.1\n3,1,nan,5e-324\n")

    def test_field_two_levels(self, tmp_path):
        s = np.zeros((2, 16, 16), dtype=np.complex128)
        s[0, 0, 1] = complex(-0.0, math.nan)
        s[0, 1, 0] = complex(math.inf, -0.0)
        s[1, 15, 0] = complex(5e-324, 1e16)
        s[1, 0, 15] = complex(0.1, -math.inf)
        field = PhysicalField(box_lengths=(1.0, 2.0), grid_shape=(16, 16),
                              x_levels=(0.0, -0.5), samples=s)
        base = str(tmp_path / "u")
        write_field(base, field, 2.0 + 0.5j, REF, "u")
        data = (tmp_path / "u.csv").read_bytes()
        lines = data.split(b"\n")
        assert len(lines) == 1 + 2 * 256 + 1 and lines[-1] == b""
        # level, then i, then j (C order)
        assert lines[:3] == [b"level,i,j,re,im", b"0,0,0,0.0,0.0", b"0,0,1,-0.0,nan"]
        assert lines[16:18] == [b"0,0,15,0.0,0.0", b"0,1,0,inf,-0.0"]
        assert lines[256:258] == [b"0,15,15,0.0,0.0", b"1,0,0,0.0,0.0"]
        assert lines[272] == b"1,0,15,0.1,-inf"
        assert lines[497] == b"1,15,0,5e-324,1e+16"
        assert hashlib.sha256(data).hexdigest() == (
            "85c80689d7d13fe47eeb13cf8bd2fa5bd894ca7d591ac486b87123fdd8dc492a")
        assert hashlib.sha256((tmp_path / "u.json").read_bytes()).hexdigest() == (
            "a0eafe6bd112b2af34c584676055421ff432f462f25074c6506003fdda478942")


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
        with pytest.raises(ConfigError, match=r"bad\.csv: expected 4 columns"):
            read_field(base)

    def test_values_match_the_per_cell_parse(self, tmp_path):
        # the reading rule of the per-cell parser this reader replaced,
        # re + 1j * im in Python complex arithmetic, on finite cells where
        # it is not plain (signed zeros, subnormals, the largest magnitude);
        # rows the CSV does not list stay zero.  Non-finite cells are
        # refused (test_cli.test_non_finite_field_value_exits_65).
        field = self._field()
        base = str(tmp_path / "odd")
        write_field(base, field, 1.0 + 0j, REF, "odd")
        cells = ["-0.0", "0.0", "5e-324", "-2.5e-300", "1e16",
                 "0.1", "-1.7976931348623157e+308", "3"]
        rows = [(lv, i, cells[(3 * lv + i) % len(cells)], cells[(5 * i + lv) % len(cells)])
                for lv in range(2) for i in range(16) if (lv, i) != (1, 7)]
        (tmp_path / "odd.csv").write_text(
            "level,i,re,im\n" + "".join(f"{lv},{i},{r},{m}\n" for lv, i, r, m in rows))
        want = np.zeros((2, 16), dtype=np.complex128)
        for lv, i, r, m in rows:
            want[lv, i] = float(r) + 1j * float(m)
        _, back = read_field(base)
        assert back.samples.tobytes() == want.tobytes()


class TestEnsureOutDir:
    def test_creates_and_idempotent(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert ensure_out_dir(str(target)) == str(target)
        assert target.is_dir()
        assert ensure_out_dir(str(target)) == str(target)
