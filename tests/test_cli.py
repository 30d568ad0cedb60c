"""Serialization, demo configs, the verify registry, and the CLI driver."""

from __future__ import annotations

import contextlib
import copy
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collarflow
from collarflow import cli
from collarflow import io as cfio
from collarflow.cli import main
from collarflow.demos import DEMOS, build_initial, demo_config
from collarflow.fields import MapField, TargetSpec, sample_map
from collarflow.flow import TRACE_COLUMNS, FlowConfig, run
from collarflow.geometry import (
    CollarGrid,
    DomainError,
    check_block,
    conformal_factor,
    half_length,
    injectivity_radius,
)
from collarflow.quad_diff import QuadDiffField
from collarflow.verify import (
    CHECKS,
    SUITE_COUNTS,
    SUITES,
    report_to_dict,
    run_checks,
)


def _report_bytes(seed=0, **kw):
    return json.dumps(report_to_dict(run_checks(seed=seed, **kw)),
                      sort_keys=True)


# valid config files: the wrap demo as a flow config and a small qd synthesis
WRAP_CONFIG, WRAP_INITIAL = demo_config("wrap")
FLOW_DOC = {"flow": cfio.config_to_dict(WRAP_CONFIG), "initial": WRAP_INITIAL,
            "seed": 0}
QD_DOC = {"qd": {"ell": 0.2, "n_s": 120, "n_theta": 12, "s_max": 3.0,
                 "modes": {"0": [0.5, -0.25], "1": [0.1, 0.0]}},
          "seed": 0}
NULLABLE = {"flow.ell_max", "flow.s_max", "qd.s_max"}
# values of the wrong JSON kind for a node holding a value of the given type
WRONG = {
    float: ["x", True, None, [], {}, math.inf, -math.inf, math.nan],
    int: ["x", True, None, [], {}, math.inf, -math.inf, math.nan, 16.5, 16.0],
    str: [1.5, True, None, [], {}],
    dict: ["x", 1.5, True, None, []],
    list: ["x", 1.5, True, None, {}],
}


def _nodes(node, path=""):
    """(dotted path, value) of every object member and list item below node."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        sub = f"{path}.{key}".lstrip(".")
        yield sub, value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, sub)


def _at(doc, path):
    for key in filter(None, path.split(".")):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _with(doc, path, value):
    """A deep copy of doc with the node at the dotted path replaced."""
    doc = copy.deepcopy(doc)
    parent, _, last = path.rpartition(".")
    node = _at(doc, parent)
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def _run_config(subcommand, doc, extra=()):
    """main on doc written as a config file: (exit code, stderr lines)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        code = main([subcommand, "--config", str(path), "--out", tmp, *extra])
    return code, err.getvalue().splitlines()


def _map_csv(tmp_path):
    """A small torus map written as tmp_path/f.csv plus its f.json header."""
    grid = CollarGrid(0.15, 24, 8, s_max=2.5)
    field = tmp_path / "f.csv"
    cfio.map_to_csv(sample_map(grid, TargetSpec.flat_torus(dim=1),
                               lambda s, t: t[None]), field, tmp_path / "f.json")
    return field


def _qd_csv(tmp_path):
    """A small quadratic differential written as tmp_path/f.csv plus f.json."""
    field = tmp_path / "f.csv"
    cfio.qd_field_to_csv(QuadDiffField(CollarGrid(0.15, 24, 8, s_max=2.5),
                                       np.ones((24, 8), dtype=complex)),
                         field, tmp_path / "f.json")
    return field


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(collarflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, collarflow, collarflow.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=env, check=True).stdout
        assert out.strip() == "[]"


# row counts either side of the CSV writer's block boundaries
ACROSS_BLOCKS = (cfio._BLOCK_ROWS - 1, cfio._BLOCK_ROWS, cfio._BLOCK_ROWS + 1,
                 2 * cfio._BLOCK_ROWS + 3)


class TestCsv:
    def test_float_columns_round_trip_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        cols = {"x": rng.normal(size=40),
                "tiny": np.exp(-200 * rng.random(40)),
                "big": 10.0 ** (300 * rng.random(40))}
        path = tmp_path / "t.csv"
        cfio.write_csv(path, cols, {"seed": 7, "label": "probe"})
        back, prov = cfio.read_csv(path)
        for name in cols:
            assert np.array_equal(back[name], cols[name])
        assert prov["seed"] == "7" and prov["label"] == "probe"

    def test_column_order_preserved(self, tmp_path):
        path = tmp_path / "o.csv"
        cfio.write_csv(path, {"zz": [1.0], "aa": [2.0], "mm": [3.0]})
        header = [l for l in path.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "zz,aa,mm"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            cfio.write_csv(tmp_path / "r.csv", {"a": [1.0, 2.0], "b": [3.0]})

    @pytest.mark.parametrize("n_rows", [8, 0, *ACROSS_BLOCKS])
    def test_rows_match_per_cell_reference_bytewise(self, tmp_path, n_rows):
        # past 8 rows the edge column repeats, so it takes the repeated-column
        # path, while f32 and x hold distinct values
        rng = np.random.default_rng(5)
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324,
                         1.7976931348623157e308, 0.1, -2.5])
        cols = {"edge": np.resize(edge, n_rows),
                "f32": (np.linspace(-1.0, 1.0, n_rows) / 3.0).astype(np.float32),
                "x": rng.normal(size=n_rows)}
        path = tmp_path / "t.csv"
        cfio.write_csv(path, cols, {"tol": 0.1, "seed": 3, "label": "probe"})
        want = ["# label: probe", "# seed: 3", "# tol: 0.10000000000000001",
                "edge,f32,x"]
        want += [",".join("%.17g" % cols[name][i] for name in cols)
                 for i in range(n_rows)]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_repeated_values_match_per_cell_reference_bytewise(self, tmp_path):
        # columns with few distinct values format each once; the bit pattern
        # keeps -0.0, 0.0 and NaN apart
        pool = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, 5e-324, 0.1, -2.5])
        for n_rows in (40, *ACROSS_BLOCKS):
            rng = np.random.default_rng(8)
            half = (n_rows + 1) // 2
            cols = {"few": pool[rng.integers(0, len(pool), size=n_rows)],
                    "half": np.repeat(rng.normal(size=half), 2)[:n_rows],
                    "f32": np.repeat(np.float32([1 / 3, -0.0]), half)[:n_rows],
                    "x": rng.normal(size=n_rows)}
            path = tmp_path / f"r{n_rows}.csv"
            cfio.write_csv(path, cols)
            want = ["few,half,f32,x"]
            want += [",".join("%.17g" % cols[name][i] for name in cols)
                     for i in range(n_rows)]
            assert path.read_bytes() == ("\n".join(want) + "\n").encode(), n_rows

    @pytest.mark.parametrize("n_rows", ACROSS_BLOCKS)
    def test_cells_match_per_cell_reference_on_hard_values(self, tmp_path, n_rows):
        # the values where digits formed in numpy could part from FLOAT_FMT:
        # either side of each power of ten, exact ties, the fixed-notation
        # bounds, specials and subnormals, in float64, float32 and longdouble
        rng = np.random.default_rng(34)
        tens = np.array([float(f"1e{e}") for e in range(-9, 19)])
        pool = np.concatenate([
            tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
            (2 * rng.integers(2e15, 4.5e15, size=300) + 1) / 4.0,
            [1e17, np.nextafter(1e17, 0), 1e-4, np.nextafter(1e-4, 0),
             0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
            rng.integers(1, 2**52, size=100).view(np.float64),
            rng.integers(-2**63, 2**63 - 1, size=n_rows, dtype=np.int64).view(np.float64)])
        pool[rng.random(len(pool)) < 0.5] *= -1
        with np.errstate(over="ignore"):  # float32 overflows to inf
            cols = {"x": np.resize(pool, n_rows), "rev": np.resize(pool[::-1], n_rows),
                    "f32": np.resize(rng.permutation(pool), n_rows).astype(np.float32),
                    "ld": np.resize(rng.permutation(pool), n_rows).astype(np.longdouble)}
        path = tmp_path / "h.csv"
        cfio.write_csv(path, cols)
        want = ["x,rev,f32,ld"]
        want += [",".join("%.17g" % cols[name][i] for name in cols) for i in range(n_rows)]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    @pytest.mark.parametrize("provenance, key", [
        ({"label": "a\nb"}, "label"), ({"label": "a\rb"}, "label"),
        ({"seed": 1, "k: v": 1}, "k: v"), ({"a\nb": 1}, "a\nb")])
    def test_provenance_that_would_not_read_back_refused(self, tmp_path, provenance, key):
        # "a\nb" read back as a header line b; a key "k: v" read back as k
        path = tmp_path / "p.csv"
        with pytest.raises(DomainError, match=rf"^csv provenance {re.escape(repr(key))}:"):
            cfio.write_csv(path, {"x": [1.0]}, provenance)
        assert not path.exists()

    def test_map_dump_holds_cells_as_bytes(self, tmp_path):
        # the large-grid sphere start: a cell per distinct value as 25 bytes
        # and one argsort over all cells peak at 2.61 MB, where a str per
        # distinct value of each repeated column peaked at 3.56 MB
        cfg = FlowConfig(ell0=0.2, eta=0.5, dt=1e-7, t_end=1e-7, n_s=384, n_theta=64,
                         target=TargetSpec.round_sphere(3), ell_max=0.4, ell_floor=0.1)
        u = MapField(cfg.grid_at(cfg.ell0),
                     build_initial(cfg, {"kind": "sphere-equator", "eps": 0.2}), cfg.target)
        tracemalloc.start()
        try:
            cfio.map_to_csv(u, tmp_path / "m.csv", tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_080_000

    def test_map_dump_peak_memory_is_bounded(self, tmp_path):
        # the large-grid sphere start: 24576 rows, 2.45 MB of text.  Holding
        # every row, their text and its bytes at once peaked at 12.0 MB; in row
        # blocks the peak is 4.2 MB, most of it the input columns and the
        # repeated columns' distinct texts and inverse indices
        cfg = FlowConfig(ell0=0.2, eta=0.5, dt=1e-7, t_end=1e-7, n_s=384, n_theta=64,
                         target=TargetSpec.round_sphere(3), ell_max=0.4, ell_floor=0.1)
        u = MapField(cfg.grid_at(cfg.ell0),
                     build_initial(cfg, {"kind": "sphere-equator", "eps": 0.2}), cfg.target)
        tracemalloc.start()
        try:
            cfio.map_to_csv(u, tmp_path / "m.csv", tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.csv").stat().st_size > 2_400_000
        assert peak < 5_000_000

    def test_failed_block_write_leaves_no_file(self, tmp_path, monkeypatch):
        # a file cut at a row boundary would read back as a shorter valid csv
        path = tmp_path / "f.csv"
        blocks = cfio._row_blocks

        def disk_fills_on_second_block(*args):
            rows = blocks(*args)
            yield next(rows)
            assert path.stat().st_size > 0  # the first block reached the file
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cfio, "_row_blocks", disk_fills_on_second_block)
        x = np.random.default_rng(2).normal(size=ACROSS_BLOCKS[-1])
        with pytest.raises(OSError, match="No space left"):
            cfio.write_csv(path, {"x": x})
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.arange(3), [1, 2, 3],
                                     np.array(["a", "b", "c"])],
                             ids=["int-array", "int-list", "str"])
    def test_non_float_column_rejected_by_name(self, tmp_path, bad):
        path = tmp_path / "b.csv"
        with pytest.raises(DomainError, match="csv column 'k' must hold floats"):
            cfio.write_csv(path, {"x": np.zeros(3), "k": bad})
        assert not path.exists()

    def test_newline_endings(self, tmp_path):
        path = tmp_path / "n.csv"
        cfio.write_csv(path, {"a": [1.0]})
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    @pytest.mark.parametrize("payload, key", [
        ({"a": 1.0, "b": math.inf}, "b"),
        ({"modes": {"3": [0.5, math.nan]}}, "modes.3[1]"),
        ({"checks": [{"name": "x", "value": -math.inf}]}, "checks[0].value"),
    ])
    def test_write_json_refuses_non_finite_by_key_path(self, tmp_path, payload, key):
        path = tmp_path / "s.json"
        with pytest.raises(DomainError, match=rf"^{re.escape(key)}: must be a finite number"):
            cfio.write_json(path, payload)
        assert not path.exists()


@pytest.fixture(scope="module")
def cli_csvs(tmp_path_factory):
    """One file of each CSV the CLI writes, by artifact name."""
    d = tmp_path_factory.mktemp("cli_csvs")
    grid = CollarGrid(0.2, 300, 16, s_max=6.0)
    def f(s, t):
        env = np.exp(s - grid.s_max) + np.exp(-s - grid.s_max)
        return np.stack([0.4 * env * np.sin(t), 0.4 * env * np.cos(t)])
    cfio.map_to_csv(sample_map(grid, TargetSpec.flat_torus(dim=2), f),
                    d / "map.csv", d / "map.json", {"seed": 4})
    (d / "qd.json").write_text(json.dumps(QD_DOC))
    for argv in (["geometry", "--ell", "0.1", "--delta", "0.3"],
                 ["qd", "--config", str(d / "qd.json")],
                 ["flow", "--demo", "wrap"],
                 ["angular", "--field", str(d / "map.csv")],
                 ["wp", "--ell0", "0.05"]):
        assert main([*argv, "--out", str(d)]) == 0
    return d


class TestCsvReadPaths:
    """read_csv's one loadtxt pass, held to the outcomes of the float() line
    loop it replaced: the same values, or the same error naming the file and
    line.  Three outcomes differ, as loadtxt's grammar is the only one: '1_0'
    and a comment after the header raise, and a U+001F-padded cell reads."""

    @pytest.mark.parametrize("name", ["trace", "geometry_profile", "qd_field",
                                      "angular_audit", "wp_path", "map"])
    def test_one_pass_matches_line_loop_on_cli_csvs(self, cli_csvs, name):
        path = cli_csvs / f"{name}.csv"
        lines = path.read_text().splitlines()
        n_prov = sum(line.startswith("# ") for line in lines)
        header = lines[n_prov].split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[n_prov + 1:]]
        want = np.array(rows).reshape(len(rows), len(header))
        columns, prov = cfio.read_csv(path)
        assert prov == dict(line[2:].split(": ", 1) for line in lines[:n_prov])
        assert prov["version"] and list(columns) == header
        for j, column in enumerate(header):
            assert columns[column].tobytes() == want[:, j].tobytes(), column

    @pytest.mark.parametrize("text, want", [
        ("a,b\n1_0,2\n", ": line 2: could not convert string to float: '1_0'"),
        ("a,b\n1,2\n   \n3,4\n", ": line 3: 1 values for 2 columns"),
        ("a\n1\n  \n", ": line 3: could not convert string to float: '  '"),
        ("# seed: 1\na,b\n1,2\n# key: late\n3,4\n", ": line 4: 1 values for 2 columns"),
        ("a,b\n1,2,\n", ": line 2: 3 values for 2 columns"),
        ("a,b\n1,2,3\n4,5,6\n", ": line 2: 3 values for 2 columns"),
        ("a,b\n1,\n", ": line 2: could not convert string to float: ''"),
        ("a,b\n1\x1f,2\n", {"a": [1.0], "b": [2.0]}),
        ("# seed: 1\r\na,b\r\n1,2\r\n\r\n3,4\r\n", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
        ("# seed: 1\na,b\n", {"a": [], "b": []}),
        ("# seed: 1\n#\n", ": no header line"),
        ("a\n1\n2.5\n", {"a": [1.0, 2.5]}),
        ("a,b\n -1.5 ,inf\n", {"a": [-1.5], "b": [math.inf]}),
        ("a,b\n1,2\n3,\u0664\n", ": line 3: could not convert string to float: '\u0664'"),
        ("a,b\n\n\n", {"a": [], "b": []}),
        ("a\n\n \n", ": line 3: could not convert string to float: ' '"),
    ], ids=["underscore", "blank-line", "blank-line-one-column", "late-comment",
            "trailing-comma", "extra-column", "empty-cell", "unit-separator", "crlf", "no-rows", "no-header",
            "one-column", "padded", "non-ascii-digit", "empty-lines-only", "blank-line-only"])
    def test_one_pass_matches_line_loop_on_edge_input(self, tmp_path, text, want):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(want, str):
            with pytest.raises(DomainError) as exc:
                cfio.read_csv(path)
            assert str(exc.value) == f"{path}{want}"
        else:
            columns, prov = cfio.read_csv(path)
            assert {k: v.tolist() for k, v in columns.items()} == want
            assert all(v.shape == (len(want["a"]),) for v in columns.values())
            assert prov == ({"seed": "1"} if text.startswith("# seed: 1") else {})


class TestConfigSerialization:
    def test_round_trip_lossless(self):
        for name in DEMOS:
            cfg, _ = __import__("collarflow.demos", fromlist=["demo_config"]) \
                .demo_config(name)
            d = cfio.config_to_dict(cfg)
            assert cfio.config_to_dict(cfio.config_from_dict(d)) == d

    def test_unknown_key_rejected(self):
        from collarflow.demos import demo_config
        d = cfio.config_to_dict(demo_config("wrap")[0])
        d["mystery"] = 1
        with pytest.raises(DomainError, match="mystery"):
            cfio.config_from_dict(d)

    def test_missing_required_key_rejected(self):
        from collarflow.demos import demo_config
        d = cfio.config_to_dict(demo_config("wrap")[0])
        del d["ell0"]
        with pytest.raises(DomainError, match="ell0"):
            cfio.config_from_dict(d)

    def test_digest_stable_and_field_sensitive(self):
        from collarflow.demos import demo_config
        cfg, _ = demo_config("wrap")
        d1 = cfio.config_digest(cfio.config_to_dict(cfg))
        d2 = cfio.config_digest(cfio.config_to_dict(
            cfio.config_from_dict(cfio.config_to_dict(cfg))))
        assert d1 == d2 and len(d1) == 64
        bumped = {**cfio.config_to_dict(cfg), "eta": cfg.eta + 0.125}
        assert cfio.config_digest(bumped) != d1

    def test_target_dict_strict(self):
        with pytest.raises(DomainError):
            TargetSpec.from_dict({"kind": "flat-torus", "color": "red"})
        with pytest.raises(DomainError):
            TargetSpec.from_dict({"kind": "round-sphere", "periods": [1.0]})

    def test_readme_flow_config_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("A flow config file has")[1]
        doc = json.loads(text.split("```json")[1].split("```")[0])
        check_block(doc, cli._FLOW_FILE)
        cfg = cfio.config_from_dict(doc["flow"])
        values = build_initial(cfg, doc["initial"])
        assert values.shape == (cfg.target.dim, cfg.n_s, cfg.n_theta)


class TestFieldSerialization:
    def test_qd_round_trip(self, tmp_path):
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        rng = np.random.default_rng(3)
        f = QuadDiffField(grid, rng.normal(size=(24, 8))
                          + 1j * rng.normal(size=(24, 8)))
        cfio.qd_field_to_csv(f, tmp_path / "f.csv", tmp_path / "f.json")
        f2 = cfio.qd_field_from_csv(tmp_path / "f.csv", tmp_path / "f.json")
        assert np.array_equal(f2.psi, f.psi)
        assert f2.grid.ell == grid.ell and f2.grid.s_max == grid.s_max

    def test_map_round_trip(self, tmp_path):
        grid = CollarGrid(0.2, 16, 8, s_max=1.5)
        rng = np.random.default_rng(4)
        u = MapField(grid, rng.normal(size=(2, 16, 8)),
                     TargetSpec.flat_torus(dim=2, periods=(5.0, 7.0)))
        cfio.map_to_csv(u, tmp_path / "u.csv", tmp_path / "u.json")
        u2 = cfio.map_from_csv(tmp_path / "u.csv", tmp_path / "u.json")
        assert np.array_equal(u2.values, u.values)
        assert u2.target == u.target

    def test_header_grid_mismatch_detected(self, tmp_path):
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        f = QuadDiffField(grid, np.ones((24, 8), dtype=complex))
        cfio.qd_field_to_csv(f, tmp_path / "f.csv", tmp_path / "f.json")
        header = json.loads((tmp_path / "f.json").read_text())
        header["s_max"] = 2.0
        (tmp_path / "f.json").write_text(json.dumps(header))
        with pytest.raises(DomainError, match="disagrees"):
            cfio.qd_field_from_csv(tmp_path / "f.csv", tmp_path / "f.json")


def _run_demo(name):
    cfg, init = demo_config(name)
    return run(cfg, build_initial(cfg, init))


class TestDemos:
    def test_terminal_statuses(self):
        assert _run_demo("wrap").status == "completed"
        assert _run_demo("pinch").status == "pinched"
        relax = _run_demo("relax")
        assert relax.status == "completed"
        assert relax["E"][-1] < 0.05 * relax["E"][0]

    def test_unknown_demo(self):
        with pytest.raises(DomainError, match="nope"):
            _run_demo("nope")


class TestVerifyRegistry:
    def test_all_checks_pass(self):
        report = run_checks(seed=0)
        failed = [r.name for r in report.results if not r.passed]
        assert failed == []
        assert report.n_passed == len(CHECKS)

    def test_static_coverage_counts(self):
        assert {suite: len(fns) for suite, fns in SUITES.items()} == SUITE_COUNTS
        # the registry's names and order key each check's Philox stream, so
        # a rename or reorder moves the verify report's bytes
        assert [(suite, name) for suite, name, _ in CHECKS] == [
            ("geometry", "half-length-oracle"), ("geometry", "half-length-monotone"),
            ("geometry", "thin-part-sandwich"), ("geometry", "conformal-sinh-identity"),
            ("geometry", "dz2-quadrature"),
            ("quad_diff", "mode-orthogonality"), ("quad_diff", "fourier-round-trip"),
            ("quad_diff", "principal-pythagoras"), ("quad_diff", "projection-contraction"),
            ("quad_diff", "thin-thick-decay"),
            ("fields", "jet-linear-exact"), ("fields", "tension-harmonic"),
            ("fields", "energy-conformal-invariance"), ("fields", "cutoff-sandwich"),
            ("fields", "theta-window-cap"),
            ("flow", "wrap-length-law"), ("flow", "energy-monotone"),
            ("flow", "energy-identity-order"), ("flow", "boundary-pinned"),
            ("flow", "pinch-status"),
            ("angular", "comparison-trials"), ("angular", "kernel-residual-order"),
            ("angular", "exp-mode-rate"),
            ("wp", "distance-oracle"), ("wp", "distance-bound"), ("wp", "correction-fit"),
            ("cli", "config-round-trip"), ("cli", "csv-round-trip"),
        ]

    def test_reports_byte_identical_across_runs(self):
        assert _report_bytes(seed=5) == _report_bytes(seed=5)

    def test_named_subset(self):
        report = run_checks(seed=0, names={"half-length-oracle"})
        assert [r.name for r in report.results] == ["half-length-oracle"]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            run_checks(seed=0, names={"no-such-check"})

    def test_rho_fault_injection_confined_to_geometry(self, monkeypatch):
        import collarflow.geometry as geometry
        orig = geometry.conformal_factor
        monkeypatch.setattr(geometry, "conformal_factor",
                            lambda ell, s: orig(ell, s) * (1.0 + 1e-6))
        report = run_checks(seed=0)
        flipped = {r.name for r in report.results if not r.passed}
        assert flipped == {"conformal-sinh-identity"}
        assert all(r.passed for r in report.results if r.suite != "geometry")

    def test_crashing_check_reported_not_raised(self, monkeypatch):
        import collarflow.geometry as geometry
        def boom(ell, s):
            raise RuntimeError("injected")
        monkeypatch.setattr(geometry, "conformal_factor", boom)
        report = run_checks(seed=0, names={"conformal-sinh-identity"})
        (res,) = report.results
        assert not res.passed and "RuntimeError" in res.detail


class TestCliDriver:
    def test_geometry_artifacts(self, tmp_path):
        assert main(["geometry", "--ell", "0.1", "--delta", "0.3",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "geometry_summary.json").read_text())
        assert summary["half_length"] == half_length(0.1)
        assert summary["provenance"]["version"]
        cols, prov = cfio.read_csv(tmp_path / "geometry_profile.csv")
        assert set(cols) == {"s", "rho", "injectivity"}
        assert "config_sha256" in prov

    def test_geometry_profile_matches_the_point_functions(self, tmp_path):
        # the profile is built as arrays: rho keeps every bit of the scalar
        # conformal_factor, while np.arcsinh may differ from math.asinh in
        # the last place
        assert main(["geometry", "--ell", "0.3", "--samples", "501",
                     "--out", str(tmp_path)]) == 0
        cols, _ = cfio.read_csv(tmp_path / "geometry_profile.csv")
        rho = np.array([conformal_factor(0.3, s) for s in cols["s"]])
        inj = np.array([injectivity_radius(0.3, s) for s in cols["s"]])
        assert len(rho) == 501 and cols["rho"].tobytes() == rho.tobytes()
        np.testing.assert_allclose(cols["injectivity"], inj, rtol=4 * np.finfo(float).eps,
                                   atol=0)

    @pytest.mark.parametrize("samples", [6, 10**15], ids=["above-cap", "unallocatable"])
    def test_geometry_samples_capped(self, tmp_path, capsys, monkeypatch, samples):
        # a count above MAX_SAMPLES exits 2 before any array is asked for
        # and writes nothing; the cap itself is allowed
        monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
        assert main(["geometry", "--ell", "0.2", "--samples", "5",
                     "--out", str(tmp_path / "ok")]) == 0
        def refused(*args, **kwargs):
            raise AssertionError("the profile was built")
        monkeypatch.setattr(cli.np, "linspace", refused)
        out = tmp_path / "out"
        assert main(["geometry", "--ell", "0.2", "--samples", str(samples),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --samples: must be in [0, 5], got {samples}\n"
        assert not out.exists()

    @pytest.mark.parametrize("ell", ["1e-300", "1e-103"], ids=["underflow", "overflow"])
    def test_geometry_tiny_ell_names_ell(self, tmp_path, capsys, ell):
        # ell**2 underflows to zero at 1e-300; at 1e-103 l2_sq overflows
        out = tmp_path / "out"
        assert main(["geometry", "--ell", ell, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ell: ") and err.count("\n") == 1
        assert not out.exists()
        assert main(["geometry", "--ell", "1e-100", "--out", str(out)]) == 0

    def test_qd_overflowing_summary_names_key_and_writes_nothing(self, tmp_path, capsys):
        # the field is finite, but its l2 norm overflows
        config, out = tmp_path / "q.json", tmp_path / "out"
        config.write_text(json.dumps(_with(QD_DOC, "qd.modes", {"0": [1e200, 0]})))
        assert main(["qd", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: l2: ") and err.count("\n") == 1
        assert not out.exists()

    def test_qd_synthesis_and_reanalysis(self, tmp_path):
        cfg = {"qd": {"ell": 0.2, "n_s": 120, "n_theta": 12, "s_max": 3.0,
                      "modes": {"0": [0.5, -0.25], "1": [0.1, 0.0]}},
               "seed": 0}
        (tmp_path / "qd.json").write_text(json.dumps(cfg))
        assert main(["qd", "--config", str(tmp_path / "qd.json"),
                     "--out", str(tmp_path / "a")]) == 0
        summary = json.loads((tmp_path / "a" / "qd_summary.json").read_text())
        assert summary["b0"] == pytest.approx([0.5, -0.25], abs=1e-10)
        assert main(["qd", "--field", str(tmp_path / "a" / "qd_field.csv"),
                     "--header", str(tmp_path / "a" / "qd_field.json"),
                     "--out", str(tmp_path / "b")]) == 0
        again = json.loads((tmp_path / "b" / "qd_summary.json").read_text())
        assert again["b0"] == summary["b0"] and again["l2"] == summary["l2"]

    def test_qd_needs_exactly_one_source(self, tmp_path):
        assert main(["qd", "--out", str(tmp_path)]) == 2

    def test_flow_demo_trace_header(self, tmp_path):
        assert main(["flow", "--demo", "wrap", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == ",".join(TRACE_COLUMNS)
        assert header == "t,ell,E,I,I_theta,I_smooth,tension_l2,re_b0,im_b0,dE_residual"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert math.isfinite(summary["C_ell"])
        assert math.isfinite(summary["C_smooth"])

    # runs whose bound fit is undefined: I + E0 = 0 on every row (a constant
    # map, with or without a moving length)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc, status", [
        (_with(FLOW_DOC, "initial", {"kind": "wrap", "a": 0.0}), "completed"),
        ({"flow": cfio.config_to_dict(demo_config("relax")[0]),
          "initial": {"kind": "theta-modes", "amplitudes": [0.0]}}, "completed"),
    ])
    def test_flow_undefined_bound_fit_writes_nulls(self, tmp_path, capsys, doc, status):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["flow", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == status
        assert summary["n_rows"] >= 3
        assert summary["C_ell"] is None and summary["C_smooth"] is None

    def test_flow_length_step_past_zero_exit_1(self):
        # one step takes ell from 0.0614 across ell_floor = 0.05 and zero
        doc = {"flow": {"ell0": 0.15, "eta": 0.6, "dt": 2e-6, "t_end": 1e-4, "n_s": 40,
                        "n_theta": 8, "ell_floor": 0.05,
                        "target": {"kind": "flat-torus", "dim": 1, "periods": [1e9]}},
               "initial": {"kind": "radial", "b": 40.0}}
        code, lines = _run_config("flow", doc)
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: step 3: core length ell = -0.0312")

    @pytest.mark.parametrize("s_max", [0.0, -2.0, 1.01 * half_length(0.6)])
    def test_flow_window_outside_collar_exit_2(self, s_max):
        code, lines = _run_config("flow", _with(FLOW_DOC, "flow.s_max", s_max))
        assert code == 2
        head, tail = "error: flow.s_max: must lie in (0, X] with X = ", f", got {s_max}"
        assert len(lines) == 1 and lines[0].startswith(head) and lines[0].endswith(tail)
        assert float(lines[0][len(head):-len(tail)]) == half_length(WRAP_CONFIG.ell_max)

    @pytest.mark.parametrize("path, value, named", [
        ("flow.ell_floor", 0.0, "flow.ell_floor: need 0 < ell_floor < ell0"),
        ("flow.ell_floor", 0.3, "flow.ell0: need 0 < ell_floor < ell0"),
        ("flow.ell0", 0.1, "flow.ell0: need"),
        ("flow.ell_max", 0.24, "flow.ell_max: need"),
        ("flow.ell_max", 2.0, "flow.ell_max: need"),
        ("flow.eta", -0.5, "flow.eta: must be >= 0, got -0.5"),
        ("flow.stepper", "rk7", "flow.stepper: must be 'euler' or 'rk2', got 'rk7'"),
        ("flow.stride", 0, "flow.stride: must be >= 1, got 0"),
        ("flow.dt", 0.0, "flow.dt: must be > 0, got 0.0"),
        ("flow.t_end", -1.0, "flow.t_end: must be > 0, got -1.0"),
        ("flow.n_s", 3, "flow.n_s: need at least 4 nodes in each direction, got 3"),
        ("flow.n_theta", 2, "flow.n_theta: need at least 4 nodes in each direction, got 2"),
        ("flow.dt", 1.0, "flow.dt: must be at most the parabolic stability bound"),
    ])
    def test_flow_range_error_names_its_field(self, path, value, named):
        code, lines = _run_config("flow", _with(FLOW_DOC, path, value))
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}")

    @pytest.mark.parametrize("dt, t_end", [(WRAP_CONFIG.dt, 0.4 * WRAP_CONFIG.dt),
                                           (1e-10, 1e300)], ids=["no-step", "overflow"])
    def test_flow_step_count_must_be_finite_and_positive(self, dt, t_end):
        doc = _with(_with(FLOW_DOC, "flow.dt", dt), "flow.t_end", t_end)
        code, lines = _run_config("flow", doc)
        assert code == 2
        assert lines == ["error: flow.t_end: t_end / dt must round to a finite step count "
                         f">= 1, got t_end = {t_end}, dt = {dt}"]

    def test_flow_too_many_trace_rows_exit_2(self, tmp_path, capsys):
        doc = _with(_with(_with(FLOW_DOC, "flow.eta", 0.0), "flow.dt", 1e-7), "flow.t_end", 1e5)
        (tmp_path / "rows.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "rows.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: flow.t_end: t_end = 100000.0 at dt = 1e-07 and stride = 5 asks for "
            "more than 100000 trace rows, got 200000000001\n")
        assert not out.exists()

    def test_flow_defaulted_ell_max_named_as_ell0(self):
        doc = _with(FLOW_DOC, "flow.ell_max", None)
        code, lines = _run_config("flow", _with(_with(doc, "flow.ell0", 2.0), "flow.s_max", None))
        assert code == 2
        assert lines == ["error: flow.ell0: need 0 < ell_floor < ell0 <= ell_max < 2 arsinh 1, "
                         "got ell_floor = 0.2, ell0 = 2.0, ell_max = 2.0"]

    @pytest.mark.parametrize("name, digest", [
        ("wrap", "473a1b8dd3e3af074d37d9bc8b3754152e04c0106d1727d00f01dc0bac3c2585"),
        ("pinch", "bb7e603469a3678b0aed52db7fcab3a62a85cb430b0bab1b172088702f8012f8"),
        ("relax", "9475f3276f2d0a3dd20749c4ca05b44f23aaa02f7ed32cebfdf0f4ae408ac9f4"),
    ])
    def test_demo_config_digest_pinned(self, name, digest):
        # the digest of the flow block alone; artifacts digest it with the initial block
        assert cfio.config_digest(cfio.config_to_dict(demo_config(name)[0])) == digest

    def test_qd_negative_n_max_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "qd.json").write_text(json.dumps(QD_DOC))
        out = tmp_path / "out"
        assert main(["qd", "--config", str(tmp_path / "qd.json"), "--n-max", "-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: n_max must be >= 0, got -1\n"
        assert not out.exists()

    def test_flow_config_file(self, tmp_path):
        from collarflow.demos import demo_config
        cfg, init = demo_config("wrap")
        doc = {"flow": cfio.config_to_dict(cfg), "initial": init, "seed": 1}
        (tmp_path / "flow.json").write_text(json.dumps(doc))
        assert main(["flow", "--config", str(tmp_path / "flow.json"),
                     "--out", str(tmp_path)]) == 0
        cols, prov = cfio.read_csv(tmp_path / "trace.csv")
        assert prov["status"] == "completed"
        assert prov["config_sha256"] == cfio.config_digest(
            {"flow": cfio.config_to_dict(cfg), "initial": init})
        assert len(cols["t"]) == json.loads(
            (tmp_path / "summary.json").read_text())["n_rows"]

    def test_flow_digest_covers_initial_block(self, tmp_path):
        # two configs that differ only in the initial amplitude run apart,
        # so their provenance must tell them apart
        digests, energies = [], []
        for a in (1.0, 0.5):
            out = tmp_path / str(a)
            doc = _with(FLOW_DOC, "initial", {"kind": "wrap", "a": a})
            (tmp_path / "flow.json").write_text(json.dumps(doc))
            assert main(["flow", "--config", str(tmp_path / "flow.json"),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            digests.append(summary["provenance"]["config_sha256"])
            energies.append(summary["energy_final"])
        assert energies[0] != energies[1]
        assert digests[0] != digests[1]

    def test_flow_malformed_config_diagnostic(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"flow": {oops}')
        assert main(["flow", "--config", str(tmp_path / "bad.json"),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_flow_unknown_key_exit_2(self, tmp_path, capsys):
        (tmp_path / "u.json").write_text(
            '{"flow": {}, "initial": {}, "bogus": 1}')
        assert main(["flow", "--config", str(tmp_path / "u.json"),
                     "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("dt", "1e-5"), ("eta", True), ("t_end", None), ("ell_max", "0.6"),
        ("n_s", 48.5), ("n_theta", True), ("stride", 1.5), ("stride", "5"),
    ])
    def test_flow_mistyped_field_exit_2(self, tmp_path, capsys, field, value):
        from collarflow.demos import demo_config
        cfg, init = demo_config("wrap")
        flow = {**cfio.config_to_dict(cfg), field: value}
        (tmp_path / "t.json").write_text(
            json.dumps({"flow": flow, "initial": init}))
        assert main(["flow", "--config", str(tmp_path / "t.json"),
                     "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("initial, named", [
        ({"kind": "wrap", "amplitude": 3}, "amplitude"),
        ({"kind": "radial", "a": 1.0}, "'a'"),
        ({"kind": ["wrap"]}, "kind"),
        (3, "initial"),
        ({"kind": "theta-modes", "width": 0}, "initial.width: must be > 0, got 0"),
        ({"kind": "theta-modes", "width": -0.5}, "initial.width: must be > 0, got -0.5"),
    ])
    def test_flow_bad_initial_exit_2(self, tmp_path, capsys, initial, named):
        from collarflow.demos import demo_config
        cfg, _ = demo_config("wrap")
        doc = {"flow": cfio.config_to_dict(cfg), "initial": initial}
        (tmp_path / "i.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "i.json"), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, path, value, named", [
        ("flow", "flow", [1, 2], "flow"),
        ("flow", "flow.t_end", math.inf, "flow.t_end"),
        ("flow", "flow.eta", math.nan, "flow.eta"),
        ("flow", "flow.blowup_sup_density", math.nan, "flow.blowup_sup_density"),
        ("flow", "flow.target", 5, "flow.target"),
        ("flow", "flow.target.dim", 1.5, "flow.target.dim"),
        ("flow", "flow.target.dim", "1", "flow.target.dim"),
        ("flow", "flow.target.periods", "ab", "flow.target.periods"),
        ("flow", "initial", {"kind": "theta-modes", "amplitudes": 3},
         "initial.amplitudes"),
        ("flow", "initial.a", True, "initial.a"),
        ("flow", "initial.a", "1.5", "initial.a"),
        ("flow", "initial.a", "x", "initial.a"),
        ("flow", "output_dir", "runs", "top level: unknown key 'output_dir'"),
        ("qd", "qd", 5, "qd"),
        ("qd", "qd.modes", [1, 2], "qd.modes"),
        ("qd", "qd.n_s", "16", "qd.n_s"),
        ("qd", "qd.n_s", 16.5, "qd.n_s"),
        ("qd", "qd.ell", "0.2", "qd.ell"),
        ("qd", "qd.modes.0", ["a", 0], "qd.modes.0.0"),
        ("qd", "qd.modes.a", [1, 0], "qd.modes: key 'a'"),
        ("qd", "output_dir", "runs", "top level: unknown key 'output_dir'"),
        ("qd", "qd.stretch", "arctan", "qd: unknown key 'stretch'"),
        ("flow", "flow.target", {"kind": "round-sphere", "periods": [1.0]},
         "flow.target: unknown key 'periods'"),
        ("flow", "flow.blowup_sup_density", 0.0,
         "flow.blowup_sup_density: must be > 0, got 0.0"),
        ("qd", "qd.n_s", 3, "qd.n_s: need at least 4 nodes"),
        ("qd", "qd.s_max", 1000.0, "qd.s_max: must lie in (0, X]"),
        ("qd", "qd.modes.01", [2, 0], "qd.modes: key '01' is not a canonical integer"),
        ("qd", "qd.modes.-0", [2, 0], "qd.modes: key '-0' is not a canonical integer"),
    ])
    def test_malformed_config_names_json_path(self, subcommand, path, value, named):
        base = FLOW_DOC if subcommand == "flow" else QD_DOC
        code, lines = _run_config(subcommand, _with(base, path, value))
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}")

    def test_duplicate_json_key_exit_2(self, tmp_path, capsys):
        # json.loads alone would keep the last eta and run the relax demo at 0.5
        cfg, init = demo_config("relax")
        text = json.dumps({"flow": cfio.config_to_dict(cfg), "initial": init})
        assert '"eta": 0.0,' in text
        path = tmp_path / "dup.json"
        path.write_text(text.replace('"eta": 0.0,', '"eta": 0.0, "eta": 0.5,'))
        assert main(["flow", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate key 'eta'\n"
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("subcommand", ["flow"])
    def test_refused_allocation_exit_2(self, tmp_path, capsys, subcommand):
        # 10^15 doubles lie past any address space: numpy refuses them unwritten,
        # and the command writes no file before it asks for them (geometry
        # --samples is capped first: test_geometry_samples_capped)
        (tmp_path / "c.json").write_text(json.dumps(_with(FLOW_DOC, "flow.n_s", 10**15)))
        argv = ["flow", "--config", str(tmp_path / "c.json")]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_exit_2(self, data):
        subcommand = data.draw(st.sampled_from(["flow", "qd"]))
        base = FLOW_DOC if subcommand == "flow" else QD_DOC
        nodes = list(_nodes(base))
        if data.draw(st.booleans()):
            where = data.draw(st.sampled_from(
                [""] + [p for p, v in nodes if isinstance(v, dict)]))
            doc = copy.deepcopy(base)
            _at(doc, where)["zz_unknown"] = 1
            named = "zz_unknown"
        else:
            named, old = data.draw(st.sampled_from(nodes))
            value = data.draw(st.sampled_from(
                [v for v in WRONG[type(old)] if v is not None or named not in NULLABLE]))
            doc = _with(base, named, value)
        code, lines = _run_config(subcommand, doc)
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]

    @pytest.mark.parametrize("subcommand, patch, named", [
        ("qd", {"n_s": "16"}, ".n_s: must be an integer"),
        ("qd", {"n_s": 24.0}, ".n_s: must be an integer"),
        ("qd", {"ell": "0.2"}, ".ell: must be a finite number"),
        ("qd", {"bogus": 1}, ": unknown key 'bogus'"),
        ("angular", {"target": 5}, ".target: must be an object"),
        ("angular", {"stretch": "arctan"}, ": unknown key 'stretch'"),
        ("qd", {"n_s": 2}, ".n_s: need at least 4 nodes"),
        ("angular", {"s_max": 1e6}, ".s_max: must lie in (0, X]"),
        ("angular", {"ell": -1.0}, ".ell: core length must be finite and positive"),
    ])
    def test_field_header_names_file_and_key(self, tmp_path, capsys,
                                             subcommand, patch, named):
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        field, header = tmp_path / "f.csv", tmp_path / "f.json"
        if subcommand == "qd":
            f = QuadDiffField(grid, np.ones((24, 8), dtype=complex))
            cfio.qd_field_to_csv(f, field, header)
        else:
            u = sample_map(grid, TargetSpec.flat_torus(dim=1), lambda s, t: t[None])
            cfio.map_to_csv(u, field, header)
        header.write_text(json.dumps({**json.loads(header.read_text()), **patch}))
        assert main([subcommand, "--field", str(field), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {header}{named}") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["qd", "angular"])
    def test_missing_field_csv_exit_2(self, tmp_path, capsys, subcommand):
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        field, header = tmp_path / "f.csv", tmp_path / "f.json"
        if subcommand == "qd":
            cfio.qd_field_to_csv(QuadDiffField(grid, np.ones((24, 8), dtype=complex)),
                                 field, header)
        else:
            cfio.map_to_csv(sample_map(grid, TargetSpec.flat_torus(dim=1),
                                       lambda s, t: t[None]), field, header)
        field.unlink()
        assert main([subcommand, "--field", str(field), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {field}") and err.count("\n") == 1

    @pytest.mark.parametrize("corrupt, named", [
        (lambda lines: lines[:-1] + ["0,0,abc"], ": line {n}: could not convert"),
        (lambda lines: lines[:-1] + ["0,0"], ": line {n}: 2 values for 3 columns"),
        (None, "cannot read "),
    ], ids=["bad-float", "short-row", "binary"])
    def test_malformed_field_csv_names_file_and_line(self, tmp_path, capsys,
                                                     corrupt, named):
        field = _map_csv(tmp_path)
        if corrupt is None:
            field.write_bytes(b"\x89PNG\r\n\x1a\n")
            want = f"error: cannot read {field}"
        else:
            lines = corrupt(field.read_text().splitlines())
            field.write_text("\n".join(lines) + "\n")
            want = f"error: {field}" + named.format(n=len(lines))
        assert main(["angular", "--field", str(field), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand, column, problem", [
        ("angular", "s", "missing"), ("angular", "theta", "missing"),
        ("angular", "u_0", "missing"), ("angular", "u_0", "repeated"),
        ("qd", "re_psi", "repeated"),
    ], ids=["s", "theta", "u_0", "repeated-u_0", "repeated-re_psi"])
    def test_map_csv_missing_column_exit_2(self, tmp_path, capsys, subcommand,
                                           column, problem):
        field = _qd_csv(tmp_path) if subcommand == "qd" else _map_csv(tmp_path)
        columns, _ = cfio.read_csv(field)
        if problem == "missing":
            del columns[column]
            cfio.write_csv(field, columns)
        else:
            # a last column under the same name but holding other values
            cfio.write_csv(field, {**columns, "dup": columns[column] + 1.0})
            field.write_text(field.read_text().replace(",dup\n", f",{column}\n", 1))
        assert main([subcommand, "--field", str(field), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {field}: {problem} column {column!r}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("subcommand, column", [("angular", "u_0"),
                                                    ("qd", "im_psi")])
    def test_non_finite_field_value_names_csv(self, tmp_path, capsys,
                                              subcommand, column, value):
        field = _qd_csv(tmp_path) if subcommand == "qd" else _map_csv(tmp_path)
        lines = field.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + value
        field.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([subcommand, "--field", str(field), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: column {column!r}")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert not out.exists()

    def test_off_sphere_field_row_names_csv(self, tmp_path, capsys):
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        field = tmp_path / "f.csv"
        cfio.map_to_csv(sample_map(grid, TargetSpec.round_sphere(), lambda s, t: np.stack(
            [np.cos(t), np.sin(t), np.zeros_like(t)])), field, tmp_path / "f.json")
        lines = field.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.5"
        field.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["angular", "--field", str(field), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {field}: sphere map values must be unit vectors\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--c1", "inf", "c1"), ("--c1", "nan", "c1"), ("--c1", "-3", "c1"),
        ("--profile-step", "0", "profile_step"),
        ("--profile-step", "nan", "profile_step"),
    ])
    def test_angular_bad_number_exit_2(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "out"
        assert main(["angular", "--field", str(_map_csv(tmp_path)), "--out", str(out),
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be finite and >")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["geometry", "--ell", "0.2", "--samples", "-1"], "--samples"),
        (["wp", "--sweep", "a,b"], "--sweep"),
        (["geometry", "--ell", "5"], "ell: "),
        (["geometry", "--ell", "-1"], "ell: "),
        (["geometry", "--ell", "nan"], "ell: "),
    ])
    def test_bad_numeric_flag_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["geometry", "qd", "flow", "angular", "wp",
                                            "verify"])
    def test_out_under_a_regular_file_exit_2(self, tmp_path, capsys, subcommand):
        (tmp_path / "qd.json").write_text(json.dumps(QD_DOC))
        argv = {"geometry": ["geometry", "--ell", "0.2"],
                "qd": ["qd", "--config", str(tmp_path / "qd.json")],
                "flow": ["flow", "--demo", "wrap"],
                "angular": ["angular", "--field", str(_map_csv(tmp_path))],
                "wp": ["wp"],
                "verify": ["verify", "--check", "half-length-oracle"]}[subcommand]
        (tmp_path / "file").write_text("")
        assert main([*argv, "--out", str(tmp_path / "file" / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ")
        assert err.count("\n") == 1 and err.count("error:") == 1

    @pytest.mark.parametrize("argv", [["flow", "--demo", "pinch"], ["verify"]])
    def test_out_under_a_regular_file_refused_before_the_work(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(cli, "run", refuse)
        monkeypatch.setattr(cli, "run_checks", refuse)
        (tmp_path / "file").write_text("")
        assert main([*argv, "--out", str(tmp_path / "file" / "sub")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out: {tmp_path / 'file'} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("extra", [[], ["--demo", "wrap"]], ids=["neither", "both"])
    def test_flow_needs_exactly_one_source(self, tmp_path, capsys, extra):
        (tmp_path / "c.json").write_text(json.dumps(FLOW_DOC))
        config = ["--config", str(tmp_path / "c.json")] if extra else []
        out = tmp_path / "out"
        assert main(["flow", *config, *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: flow needs exactly one of --config or --demo\n"
        assert not out.exists()

    def test_vacuous_angular_audit_writes_header_only(self, tmp_path):
        # a window of s_max 1.4 holds no station of the bound's domain
        grid = CollarGrid(0.2, 200, 8, s_max=1.4)
        u = sample_map(grid, TargetSpec.flat_torus(dim=1),
                       lambda s, t: (0.1 * np.sin(t) * np.ones_like(s))[None])
        cfio.map_to_csv(u, tmp_path / "f.csv", tmp_path / "f.json")
        out = tmp_path / "out"
        assert main(["angular", "--field", str(tmp_path / "f.csv"), "--out", str(out)]) == 0
        columns, prov = cfio.read_csv(out / "angular_audit.csv")
        assert list(columns) == ["s0", "lhs", "rhs", "slack"]
        assert all(len(col) == 0 for col in columns.values())
        assert prov["vacuous"] == "True"

    @pytest.mark.parametrize("argv, named", [
        (["--tol", "inf"], "tol"), (["--tol", "nan"], "tol"), (["--tol", "-1"], "tol"),
        (["--sweep", "0.02,0.05,nan"], "--sweep"),
        (["--ell0", "5"], "ell0: need a core length in (0, 2 arsinh 1), got 5.0"),
        (["--ell0", "nan"], "ell0: need a core length in (0, 2 arsinh 1), got nan"),
        (["--sweep", "0.02,0.05,3"],
         "--sweep: sample lengths: need a core length in (0, 2 arsinh 1), got 3.0"),
    ])
    def test_wp_bad_input_writes_nothing(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert main(["wp", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-300", "1e-6"])
    def test_angular_station_cap_exit_2(self, tmp_path, capsys, step):
        # s_max 2.5 asks for 2 floor(1.5 / step) + 1 stations
        out = tmp_path / "out"
        assert main(["angular", "--field", str(_map_csv(tmp_path)), "--out", str(out),
                     "--profile-step", step]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: profile_step: {float(step)} asks for more than 65536 "
                       "stations on a grid with s_max = 2.5\n")
        assert not out.exists()

    def test_zero_dim_torus_names_dim(self, tmp_path, capsys):
        zero = {"kind": "flat-torus", "dim": 0, "periods": []}
        code, lines = _run_config("flow", _with(FLOW_DOC, "flow.target", zero))
        assert code == 2
        assert lines == ["error: flow.target.dim: must be >= 1, got 0"]
        grid = CollarGrid(0.15, 24, 8, s_max=2.5)
        field, header = tmp_path / "f.csv", tmp_path / "f.json"
        cfio.map_to_csv(sample_map(grid, TargetSpec.flat_torus(dim=1),
                                   lambda s, t: t[None]), field, header)
        header.write_text(json.dumps({**json.loads(header.read_text()), "target": zero}))
        assert main(["angular", "--field", str(field), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {header}.target.dim: must be >= 1, got 0\n"

    @pytest.mark.parametrize("periods, message", [
        ([1.0], "must hold 2 periods, got [1.0]"),
        ([-1.0, 1.0], "must be positive and finite, got [-1.0, 1.0]"),
    ], ids=["count", "sign"])
    def test_bad_periods_name_their_path(self, tmp_path, capsys, periods, message):
        torus = {"kind": "flat-torus", "dim": 2, "periods": periods}
        code, lines = _run_config("flow", _with(FLOW_DOC, "flow.target", torus))
        assert code == 2
        assert lines == [f"error: flow.target.periods: {message}"]
        field = _map_csv(tmp_path)
        header = field.with_suffix(".json")
        header.write_text(json.dumps({**json.loads(header.read_text()), "target": torus}))
        assert main(["angular", "--field", str(field), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {header}.target.periods: {message}\n"

    @pytest.mark.parametrize("initial, target", [
        ({"kind": "wrap"}, {"kind": "round-sphere", "dim": 3}),
        ({"kind": "theta-modes"}, {"kind": "round-sphere", "dim": 3}),
        ({"kind": "radial"}, {"kind": "round-sphere", "dim": 3}),
        ({"kind": "sphere-equator"}, {"kind": "round-sphere", "dim": 2}),
        ({"kind": "sphere-equator"}, {"kind": "flat-torus", "dim": 3}),
    ], ids=["wrap-sphere", "theta-modes-sphere", "radial-sphere", "equator-dim2",
            "equator-torus"])
    def test_initial_kind_needs_its_target(self, initial, target):
        doc = _with(_with(FLOW_DOC, "flow.target", target), "initial", initial)
        code, lines = _run_config("flow", doc)
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: initial.kind: ")
        assert repr(initial["kind"]) in lines[0]

    def test_sphere_equator_pads_past_the_third_component(self):
        eps = {"kind": "sphere-equator", "eps": 0.2}
        cfg3 = cfio.config_from_dict({**FLOW_DOC["flow"],
                                      "target": {"kind": "round-sphere", "dim": 3}})
        cfg4 = cfio.config_from_dict({**FLOW_DOC["flow"],
                                      "target": {"kind": "round-sphere", "dim": 4}})
        v3, v4 = build_initial(cfg3, eps), build_initial(cfg4, eps)
        assert v4.shape == (4,) + v3.shape[1:]
        assert np.array_equal(v4[:3], v3) and not v4[3].any()
        code, _ = _run_config("flow", _with(_with(FLOW_DOC, "flow.target",
                                                  cfg4.target.to_dict()), "initial", eps))
        assert code == 0

    def test_config_file_seed_recorded_unless_flag_given(self, tmp_path):
        for doc, sub, artifact in [({**FLOW_DOC, "seed": 3}, "flow", "trace.csv"),
                                   ({**QD_DOC, "seed": 3}, "qd", "qd_field.csv")]:
            (tmp_path / "c.json").write_text(json.dumps(doc))
            for extra, seed in [((), "3"), (("--seed", "5"), "5")]:
                out = tmp_path / f"{sub}{seed}"
                assert main([sub, "--config", str(tmp_path / "c.json"),
                             "--out", str(out), *extra]) == 0
                assert cfio.read_csv(out / artifact)[1]["seed"] == seed
                summary = "summary.json" if sub == "flow" else "qd_summary.json"
                prov = json.loads((out / summary).read_text())["provenance"]
                assert prov["seed"] == int(seed)

    def test_flow_error_exit_1_without_traceback(self):
        code, lines = _run_config("flow", _with(FLOW_DOC, "flow.eta", 1e200))
        assert code == 1
        assert lines[-1] == "error: step 1: non-finite state"

    def test_rk2_non_finite_length_speed_exit_1(self):
        # u = 0 gives b0 = 0, so the length speed is inf * 0 = nan at once
        doc = _with(_with(FLOW_DOC, "flow.stepper", "rk2"), "flow.eta", 1e200)
        code, lines = _run_config("flow", _with(doc, "initial.a", 0.0))
        assert code == 1
        assert lines == ["error: step 1: non-finite state"]

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["flow", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2

    def test_angular_audit_artifact(self, tmp_path):
        grid = CollarGrid(0.2, 300, 16, s_max=6.0)
        def f(s, t):
            env = np.exp(s - grid.s_max) + np.exp(-s - grid.s_max)
            return np.stack([0.4 * env * np.sin(t), 0.4 * env * np.cos(t)])
        u = sample_map(grid, TargetSpec.flat_torus(dim=2), f)
        cfio.map_to_csv(u, tmp_path / "u.csv", tmp_path / "u.json")
        assert main(["angular", "--field", str(tmp_path / "u.csv"),
                     "--out", str(tmp_path)]) == 0
        cols, prov = cfio.read_csv(tmp_path / "angular_audit.csv")
        assert set(cols) == {"s0", "lhs", "rhs", "slack"}
        assert prov["satisfied"] == "True"
        assert np.all(cols["slack"] >= 0.0)
        assert np.allclose(cols["slack"], cols["rhs"] - cols["lhs"])

    def test_wp_summary_and_path(self, tmp_path):
        assert main(["wp", "--ell0", "0.01", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "wp_summary.json").read_text())
        assert summary["distance"] == pytest.approx(0.2506628, abs=5e-7)
        assert 0.0 < summary["deficit"] < 1e-8
        cols, _ = cfio.read_csv(tmp_path / "wp_path.csv")
        assert cols["s"][0] == 0.0
        assert cols["s"][-1] == pytest.approx(summary["distance"], rel=1e-12)
        assert cols["ell"][0] == pytest.approx(0.01)

    def test_wp_sweep_fit(self, tmp_path):
        assert main(["wp", "--ell0", "0.05", "--sweep", "0.02,0.05,0.1",
                     "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "wp_summary.json").read_text())["fit"]
        assert fit["c3_times_84pi"] == pytest.approx(1.0, abs=0.05)

    def test_verify_cli_writes_report(self, tmp_path, capsys):
        assert main(["verify", "--suite", "geometry", "--suite", "wp",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True and report["n_checks"] == 8
        assert "elapsed_s" not in json.dumps(report)

    def test_verify_cli_failure_exit_1_report_still_written(
            self, tmp_path, monkeypatch):
        import collarflow.geometry as geometry
        orig = geometry.conformal_factor
        monkeypatch.setattr(geometry, "conformal_factor",
                            lambda ell, s: orig(ell, s) * (1.0 + 1e-6))
        assert main(["verify", "--check", "conformal-sinh-identity",
                     "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is False

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_verify_seed_outside_the_key_range_refused(self, tmp_path, capsys,
                                                      monkeypatch, seed):
        import collarflow.verify as verify

        def refuse(*args):
            raise AssertionError("a check ran with a refused seed")

        monkeypatch.setattr(verify, "_run_one", refuse)
        out = tmp_path / "out"
        assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --seed: must be in [0, 2**128), "
                                           f"the Philox key range, got {seed}\n")
        assert not out.exists()

    def test_verify_seed_at_the_top_of_the_key_range_runs(self, tmp_path):
        assert main(["verify", "--seed", str(2**128 - 1), "--check", "half-length-oracle",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["seed"] == 2**128 - 1 and report["passed"] is True

    def test_verify_with_timing_flag(self, tmp_path):
        assert main(["verify", "--check", "half-length-oracle",
                     "--with-timing", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert "elapsed_s" in report["checks"][0]

    def test_repeated_calls_write_what_fresh_runs_write(self, tmp_path):
        # main keeps one parser per process; no parsed value may carry over
        # from one call to the next (the repeatable --suite list above all)
        runs = [("verify", ["verify", "--suite", "geometry"], "verify_report.json"),
                ("flow", ["flow", "--demo", "wrap"], "trace.csv"),
                ("all", ["verify"], "verify_report.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv, _ in runs:
                assert main([*argv, "--out", str(tmp_path / "one" / name)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(collarflow.__file__).parents[1])}
        for name, argv, artifact in runs:
            fresh = tmp_path / "fresh" / name
            subprocess.run([sys.executable, "-m", "collarflow.cli", *argv,
                            "--out", str(fresh)], env=env, check=True,
                           capture_output=True)
            for path in sorted(fresh.iterdir()):
                assert (tmp_path / "one" / name / path.name).read_bytes() \
                    == path.read_bytes()
            assert (fresh / artifact).exists()
        n_checks = json.loads((tmp_path / "one" / "all" / "verify_report.json")
                              .read_text())["n_checks"]
        assert n_checks == len(CHECKS)

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-subcommand"])
        assert exc.value.code == 2
