"""Serialization: deterministic CSV/JSON writers and strict config parsing.

Numbers are written with 17 significant digits so a round trip through
text reproduces the exact float64 values.  CSV files carry provenance
as leading comment lines; JSON files carry it as a "provenance" object.
Writers emit byte-identical output for identical inputs: keys are
sorted, line endings are always "\\n", and nothing derived from wall
time is included.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from collarflow import __version__
from collarflow.geometry import CollarGrid, DomainError, check_block
from collarflow.fields import MapField, TargetSpec
from collarflow.flow import FLOW_FIELDS, FlowConfig, FlowTrace
from collarflow.quad_diff import QuadDiffField

FLOAT_FMT = "%.17g"
COMMENT_PREFIX = "# "


# rows per written block and values per formatted chunk: a dump's bound on transient bytes
_BLOCK_ROWS = 1024
# a cell is '-' or NUL, the rest of FLOAT_FMT's text NUL-padded, and a byte
# for ',' or '\n'; the NULs are dropped as a block is written
_CELL = 25
_ZERO, _DOT, _MINUS, _COMMA, _NEWLINE, _SPACE = b"0.-,\n "
_PADDED_FMT = b"%-24" + FLOAT_FMT[1:].encode()  # FLOAT_FMT's text in 24 bytes
# "0000" to "9999" as (10**4, 4) digits, and the scale of each 4-digit group
_GROUPS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + _ZERO
_GROUP_SCALES = 10 ** np.arange(16, -1, -4, dtype=np.int64)
# the least doubles at or above 10**-4 .. 10**17 (the doubles nearest the
# negative powers lie above them); 10**p, exact for p <= 22, and its halves
_DECADES = np.concatenate(([1e-4, 1e-3, 1e-2, 1e-1], 10.0 ** np.arange(18)))
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# byte i of the text of a value with exponent k and n digits kept is byte _LAYOUT[18 (k + 4)
# + n, i] of "0.", NUL and the 17 digits: for k >= 0 the digits, '.' after k + 1 of them if
# more are kept; for k < 0 "0.", -k - 1 zeros and the digits
_k, _n, _i = (a.astype(np.int8) for a in np.ogrid[-4:17, :18, :22])
_digit = np.where(_k >= 0, _i - (_i > _k), _i - 1 + _k)  # the digit at byte i
_LAYOUT = np.where((_k >= 0) & (_i == _k + 1), np.where(_n > _k + 1, 1, 2), np.where(
    _digit < 0, _i == 1, np.where(_digit < _n, _digit + 3, 2))).reshape(378, 22).astype(np.int8)
del _k, _n, _i, _digit


def write_csv(path, columns: dict, provenance: dict | None = None) -> None:
    """Write named float columns with an exact-width float format.

    Column order follows the dict; all columns must share one length and
    hold floats, and each cell holds FLOAT_FMT's text of its float64 value.
    A name that would not read back as itself (a ',' or a line break, or
    a '#' opening the first) is refused.  Provenance entries become sorted
    leading comment lines; one that would not read back as itself (a line
    break, or ': ' in a key) is refused.
    Rows are written in blocks of _BLOCK_ROWS through one open file; a
    rejected column or entry creates no file, and a write that fails
    partway removes the partial file.
    """
    names = list(columns)
    if not names:
        raise DomainError("csv needs at least one column")
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = arrays[0].shape[0]
    if any(a.ndim != 1 or a.shape[0] != n_rows for a in arrays):
        raise DomainError("csv columns must be 1-d and equal length")
    for i, (name, a) in enumerate(zip(names, arrays)):
        if a.dtype.kind != "f":
            raise DomainError(f"csv column {name!r} must hold floats, got {a.dtype}")
        if "," in name or _breaks_line(name) or (i == 0 and name.startswith("#")):
            raise DomainError(f"csv column {name!r}: a name may not hold ',' or a line "
                              f"break, nor the first start with '#'")
    head = ""
    for key, value in sorted((provenance or {}).items()):
        line = f"{key}: {FLOAT_FMT % value if isinstance(value, (float, np.floating)) else value}"
        if _breaks_line(line) or ": " in str(key):
            raise DomainError(f"csv provenance {key!r}: a key or value may not hold "
                              f"a line break, nor a key ': '")
        head += f"{COMMENT_PREFIX}{line}\n"
    keys, index = _distinct(arrays)
    cells = np.zeros((len(keys), _CELL), np.uint8)
    for i in range(0, len(keys), _BLOCK_ROWS):
        _cell_texts(keys[i:i + _BLOCK_ROWS], cells[i:i + _BLOCK_ROWS])
    f = open(path, "wb")
    try:
        with f:
            f.write((head + ",".join(names) + "\n").encode("utf-8"))
            for text in _row_blocks(cells, index):
                f.write(text)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _breaks_line(text: str) -> bool:
    """Whether text holds a line break that str.splitlines, and so read_csv, splits
    on.  No break is printable, so printable text builds no list of lines."""
    return not text.isprintable() and "".join(text.splitlines()) != text


def _distinct(arrays: list) -> tuple[np.ndarray, np.ndarray]:
    """The columns' distinct float64 values by bit pattern (so -0.0, 0.0 and each
    NaN keep their own text), and the (rows, columns) index of each cell into
    them; sorted in place, the cells' bits and argsort peak at half np.unique's."""
    bits = np.stack(arrays, axis=1).astype(np.float64, copy=False).view(np.int64).ravel()
    order = bits.argsort()
    bits.sort()
    new = np.concatenate(([True], bits[1:] != bits[:-1]))[:len(bits)]  # starts a value
    keys = bits[new].view(np.float64)
    del bits
    rank = np.cumsum(new, dtype=np.min_scalar_type(len(new)))
    rank -= 1
    index = np.empty_like(rank)
    index[order] = rank
    return keys, index.reshape(-1, len(arrays))


def _row_blocks(cells: np.ndarray, index: np.ndarray):
    """The rows' bytes, _BLOCK_ROWS at a time: cells by index, separated, NULs dropped."""
    for start in range(0, len(index), _BLOCK_ROWS):
        block = np.take(cells, index[start:start + _BLOCK_ROWS], axis=0)
        block[:, :-1, -1:] = _COMMA
        block[:, -1:, -1:] = _NEWLINE
        yield block[block != 0].tobytes()


def _cell_texts(x: np.ndarray, out: np.ndarray) -> None:
    """Write the cells of float64 values x into the zeroed out.

    FLOAT_FMT writes 1e-4 <= |x| < 1e17 in fixed notation, and so does this.
    With k = floor(log10 |x|), Dekker's two-product splits |x| 10**(16 - k)
    exactly into hi + lo; hi is an even integer, so N = hi + rint(lo) rounds
    half to even to 17 digits, as FLOAT_FMT does (N < 10**17: no double lies
    within half a unit of the 17th digit below a power of ten).  The rest
    (zeros, nan, infinities, exponent notation) go through FLOAT_FMT.
    """
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    v = a[fixed]
    k = np.searchsorted(_DECADES, v, side="right") - 5
    v_hi = v * 134217729.0 - (v * 134217729.0 - v)  # Veltkamp's split, as for _POW10
    v_lo = v - v_hi
    p = 16 - k
    hi = v * _POW10[p]
    lo = ((v_hi * _POW10_HI[p] - hi) + v_hi * _POW10_LO[p] + v_lo * _POW10_HI[p]) \
        + v_lo * _POW10_LO[p]
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # "000" and N's 17 digits, then bytes 1 and 2 become '.' and NUL
    src = np.take(_GROUPS, n[:, None] // _GROUP_SCALES % 10_000, axis=0).reshape(len(v), 20)
    src[:, 1:3] = (_DOT, 0)
    kept = 17 - np.argmax(src[:, :2:-1] != _ZERO, axis=1)
    layout = np.take(_LAYOUT, 18 * k + np.maximum(kept, k + 1) + 72, axis=0)
    out[:, :1] = np.signbit(x)[:, None] * _MINUS
    out[fixed, 1:23] = np.take(src, layout + np.arange(0, src.size, 20)[:, None])
    rest = x[~fixed].tolist()
    text = np.frombuffer((_PADDED_FMT * len(rest)) % tuple(rest), np.uint8).reshape(-1, 24)
    out[~fixed, :24] = np.where(text == _SPACE, 0, text)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def read_csv(path) -> tuple[dict, dict]:
    """Read a csv written by write_csv: (columns, provenance).

    Leading '# key: value' lines are the provenance, the next line is the
    header, and the data lines after it are parsed in one np.loadtxt call,
    whose number grammar is the only one: a cell is stripped of whitespace
    (U+001F included) and read as an ASCII float, so '1_0', non-ASCII
    digits and a comment after the header are rejected.  Empty lines are
    skipped, and no data lines give zero rows.  A rejected body raises
    DomainError naming the file and its first bad line.
    """
    lines = _read_text(path).splitlines()
    provenance = {}
    for start, line in enumerate(lines):
        if not line.startswith("#"):
            break
        key, sep, val = (line[2:] if line.startswith(COMMENT_PREFIX)
                         else line.lstrip("#")).partition(": ")
        if sep:
            provenance[key] = val
    else:
        raise DomainError(f"{path}: no header line")
    header = lines[start].split(",")
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise DomainError(f"{path}: repeated column {repeated[0]!r}")
    body = lines[start + 1:]
    try:
        with warnings.catch_warnings():  # loadtxt warns when it finds no rows
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64)
    except ValueError:
        data = np.empty((0, 0))
    if not len(data) or data.shape[1] != len(header):
        _raise_at_bad_line(path, body, start + 2, len(header))
        data = np.empty((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}, provenance


def _raise_at_bad_line(path, lines: list[str], first: int, width: int) -> None:
    """Raise DomainError naming the first of lines (numbered from first) that
    holds other than width cells or a cell np.loadtxt does not read as a
    number; a blank cell is none.  Returns only if every line is empty."""
    for n, line in enumerate(lines, first):
        cells = line.split(",") if line else []
        if cells and len(cells) != width:
            raise DomainError(f"{path}: line {n}: {len(cells)} values for {width} columns")
        for cell in cells:
            try:
                if not cell.strip():  # loadtxt would read it as no row
                    raise ValueError
                np.loadtxt([cell], delimiter=",", comments=None)
            except ValueError:
                raise DomainError(f"{path}: line {n}: could not convert string "
                                  f"to float: {cell!r}") from None
    if any(lines):
        raise DomainError(f"{path}: np.loadtxt rejects the data lines")


def check_finite(value, where: str = "") -> None:
    """Refuse, by its key path, the first float of a JSON-ready value (nested
    dicts, lists and tuples) that JSON cannot hold: nan or an infinity."""
    if isinstance(value, dict):
        for key, item in value.items():
            check_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            check_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{where}: must be a finite number, got {value}")


def write_json(path, payload: dict, provenance: dict | None = None) -> None:
    """Deterministic JSON: sorted keys, '\\n' ending, provenance object; a
    non-finite value is refused by check_finite before the file is opened."""
    check_finite(payload)
    doc = dict(payload)
    if provenance is not None:
        doc["provenance"] = {k: provenance[k] for k in sorted(provenance)}
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8", newline="\n")


def read_json(path):
    """Decoded JSON file; unreadable or malformed files, and an object that
    names a key twice, raise DomainError."""
    def unique(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise DomainError(f"{path}: duplicate key {key!r}")
            seen[key] = value
        return seen

    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


_GRID_HEADER = {"ell": float, "n_s": int, "n_theta": int, "s_max": float,
                "provenance?": dict}


def config_to_dict(config: FlowConfig) -> dict:
    return {**asdict(config), "target": config.target.to_dict()}


def config_from_dict(d: dict) -> FlowConfig:
    """Strict parse of a flow block: nothing is dropped or coerced."""
    check_block(d, {**FLOW_FIELDS, "target": dict}, "flow")
    return FlowConfig(**{**d, "target": TargetSpec.from_dict(d["target"], "flow.target")})


def config_digest(config: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON form of a subcommand's
    parameters, for provenance lines."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def provenance_for(config: dict | None = None,
                   seed: int | None = None, **extra) -> dict:
    prov = {"version": __version__}
    if config is not None:
        prov["config_sha256"] = config_digest(config)
    if seed is not None:
        prov["seed"] = seed
    prov.update(extra)
    return prov


def trace_summary(trace: FlowTrace) -> dict:
    """JSON-ready run summary: terminal state plus trace extrema."""
    return {
        "status": trace.status,
        "n_rows": trace.n_rows,
        "t_final": float(trace["t"][-1]),
        "ell_initial": float(trace["ell"][0]),
        "ell_final": float(trace["ell"][-1]),
        "energy_initial": float(trace["E"][0]),
        "energy_final": float(trace["E"][-1]),
        "tension_l2_final": float(trace["tension_l2"][-1]),
        "max_dE_residual": float(np.nanmax(np.abs(trace["dE_residual"])))
        if trace.n_rows > 1 else None,
    }


def _read_header(path, schema: dict) -> tuple[dict, CollarGrid]:
    """The header's keys and grid; an error starts with the path of the bad value."""
    d = check_block(read_json(path), schema, str(path))
    try:
        return d, CollarGrid(d["ell"], d["n_s"], d["n_theta"], s_max=d["s_max"])
    except DomainError as exc:
        raise DomainError(f"{path}.{exc}") from exc


def _node_columns(grid) -> dict:
    s = np.repeat(grid.s_nodes, grid.n_theta)
    theta = np.tile(grid.theta_nodes, grid.n_s)
    return {"s": s, "theta": theta}


def _read_columns(path, grid, names) -> dict:
    """Columns of a field csv; its s and theta columns must match the grid
    and its value columns must be finite."""
    columns, _ = read_csv(path)
    for name in ("s", "theta", *names):
        if name not in columns:
            raise DomainError(f"{path}: missing column {name!r}")
    for name in names:
        if not np.isfinite(columns[name]).all():
            raise DomainError(f"{path}: column {name!r} holds a non-finite value")
    for name, want in _node_columns(grid).items():
        if columns[name].shape != want.shape \
                or not np.allclose(columns[name], want, rtol=0, atol=1e-12):
            raise DomainError(f"{path}: node column {name!r} disagrees with header grid")
    return columns


def _write_field(grid, values: dict, csv_path, header_path,
                 provenance: dict | None, **header) -> None:
    """Node columns s, theta plus the value columns (rows s-major over the
    tensor grid), and a JSON header of the grid plus any extra keys."""
    prov = provenance_for(**(provenance or {}))
    write_csv(csv_path, {**_node_columns(grid), **values}, prov)
    write_json(header_path, {"ell": grid.ell, "n_s": grid.n_s,
                             "n_theta": grid.n_theta, "s_max": grid.s_max,
                             **header}, prov)


def qd_field_to_csv(field, csv_path, header_path, provenance: dict | None = None) -> None:
    """Columnar dump of a quadratic differential plus a JSON grid header;
    values are the raw coefficient psi so the dump is grid-metric agnostic."""
    _write_field(field.grid, {"re_psi": field.psi.real.ravel(),
                              "im_psi": field.psi.imag.ravel()},
                 csv_path, header_path, provenance)


def qd_field_from_csv(csv_path, header_path):
    _, grid = _read_header(header_path, _GRID_HEADER)
    columns = _read_columns(csv_path, grid, ("re_psi", "im_psi"))
    shape = (grid.n_s, grid.n_theta)
    psi = columns["re_psi"].reshape(shape) + 1j * columns["im_psi"].reshape(shape)
    return QuadDiffField(grid, psi)


def map_to_csv(u, csv_path, header_path, provenance: dict | None = None) -> None:
    """Columnar dump of a map into its target, plus a JSON grid header."""
    _write_field(u.grid, {f"u_{d}": u.values[d].ravel()
                          for d in range(u.target.dim)},
                 csv_path, header_path, provenance,
                 target=u.target.to_dict())


def map_from_csv(csv_path, header_path):
    header, grid = _read_header(header_path, {**_GRID_HEADER, "target": dict})
    target = TargetSpec.from_dict(header["target"], f"{header_path}.target")
    names = [f"u_{d}" for d in range(target.dim)]
    columns = _read_columns(csv_path, grid, names)
    values = np.stack([columns[name] for name in names])
    try:
        return MapField(grid, values.reshape(target.dim, grid.n_s, grid.n_theta), target)
    except DomainError as exc:  # a sphere map's off-sphere row
        raise DomainError(f"{csv_path}: {exc}") from exc
