"""Batch experiment runner.

Scenarios are described by a JSON config (unknown keys rejected, all
defaults materialized into the resolved copy); command-line flags override
the scalar fields.  Every run writes its resolved config to
``config.resolved.json`` next to its outputs and prints only its path.
CSV files hold the bytes csv.writer would write (header row, '.' decimals,
newline line ends), streamed from columns in chunks; a write of more
than one chunk formats them in pairs, the second of each on a worker
thread.  A chunk of numpy bool, int and float columns is formatted in
numpy, each run of equal cells once, with repr's shortest float digits
computed exactly in uint64 arithmetic; any other chunk goes through
csv.writer.  Orbit logs are
JSON-lines, the bytes of json.dumps per record, from the same row kernel,
and all files are written atomically.

Usage: shiftlab <scenario> --config PATH [--out DIR] [--horizon N] (options
in any order).  Exit codes: 0 completed or --help, 1 usage/config error, 2
refusal or violations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import csv
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import constructor as ctor
from . import criterion as crit
from . import density as dens
from .errors import ConstructionRefusedError, ShiftLabError
from .seqspace import (
    UNILATERAL,
    CoeffVector,
    SpaceSpec,
    c0,
    entire,
    linf_weakstar,
    lp,
)
from .shiftops import (
    BACKWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2

MAX_GRID = 512
CSV_CHUNK_ROWS = 1 << 15
# A chunk of fewer rows goes through csv.writer, which writes it faster
# than the numpy route's fixed cost of about 0.2 ms a float column: on 2
# CPUs they break even near 200 rows of (int, int, float) and 300 rows of
# eq33.csv's (int, int, float, float, bool).
_WRITER_ROWS = 256


@functools.cache
def _digit_words() -> np.ndarray:
    """The text of each 4-digit group g as one uint32 word, in five states
    at _digit_words()[g + state]: all four digits (_FULL); leading zeros as
    pads (_LEAD), keeping a last 0 (_LEAD1); trailing zeros as pads
    (_TRAIL), keeping a first 0 (_TRAIL1).  A pad is a 0 byte.  Built on
    first use, so a run that writes no numeric CSV never holds it."""
    g, at = np.arange(10000, dtype=np.uint16)[:, None], np.arange(4, dtype=np.uint16)
    digits = (g // 10 ** (3 - at) % 10 + 48).astype(np.uint8)
    lead = (g >= 10 ** (3 - at)).sum(1, keepdims=True, dtype=np.uint8)  # digits of g
    trail = (g % 10 ** (4 - at) != 0).sum(1, keepdims=True, dtype=np.uint8)  # to its last nonzero
    keep = [at >= 0, at >= 4 - lead, at >= 4 - np.maximum(lead, 1),
            at < trail, at < np.maximum(trail, 1)]
    return np.concatenate([np.where(k, digits, 0) for k in keep]).view(np.uint32).ravel()


_FULL, _LEAD, _LEAD1, _TRAIL, _TRAIL1 = range(0, 50000, 10000)
# str's and JSON's bool spellings, 0 bytes as pads
_BOOL_TEXT = np.frombuffer(b"False\0Truefalse\0true", np.uint8).reshape(2, 2, 5)
_U64 = np.uint64
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# for kt digits after the point: 10^kt, and the cut and the scales that
# spread a kt-digit fraction f over 20 digits, f // cut * hi and f % cut * lo
_FRACTION = np.array([[10 ** min(kt, 19), 10 ** max(kt - 12, 0), 10 ** (12 - min(kt, 12)),
                       10 ** (20 - max(kt, 12))] for kt in range(21)], dtype=np.uint64).T


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _convert(convert, value, where: str):
    """convert(value); a value it cannot take is a config error at ``where``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(obj, fields: dict, where: str, convert: bool = True) -> dict:
    """A config object's values by ``fields``, key -> (default, converter):
    unknown keys are rejected, defaults filled (``...`` marks a required
    key) and, with ``convert``, each value converted as by ``_convert`` at
    ``where.key`` (a converter of None keeps it; None stays None where the
    default is None)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{where}: unknown key {key!r}")
    out = {}
    for key, (default, conv) in fields.items():
        value = obj.get(key, default)
        if value is ...:
            raise ConfigError(f"{where}: missing required key {key!r}")
        if convert and conv is not None and (value is not None or default is not None):
            value = _convert(conv, value, f"{where}.{key}")
        out[key] = value
    return out


def _kind(obj, key: str, kinds: dict, where: str, what: str) -> str:
    """obj[key], the name of one of ``kinds``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    if not isinstance(obj[key], str) or obj[key] not in kinds:
        raise ConfigError(f"{where}: unknown {what} {obj[key]!r}")
    return obj[key]


def _complex(v) -> complex:
    """A config number: a real or an [re, im] pair."""
    if isinstance(v, list):
        re, im = v
        return complex(re, im)
    return complex(v)


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _entries(value) -> dict[int, complex]:
    """A config object of index -> number."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, not {type(value).__name__}")
    return {int(k): _complex(v) for k, v in value.items()}


# family -> (weight class, the fields of its arguments in order)
WEIGHT_FAMILIES = {
    "Constant": (ConstantWeight, {"value": (2.0, complex)}),
    "Bergman": (BergmanWeight, {}),
    "LogWeight": (LogRatioWeight, {}),
    "RootWeight": (RootRatioWeight, {"p": (1, int)}),
    "TMu": (TMuWeight, {"mu": (1.0, _complex)}),
    "Table": (TableWeight, {"values": ([], list), "default": (1.0, complex)}),
    "BilateralTable": (BilateralTableWeight, {
        "entries": ({}, _entries), "default_pos": (1.0, complex),
        "default_nonpos": (1.0, complex)}),
}
SPACE_FIELDS = {"kind": ("lp", None), "p": (2.0, float), "domain": (UNILATERAL, None),
                "rmax": (8, int)}
VECTOR_FIELDS = {"basis": (None, int), "entries": (None, _entries)}
TARGET_KINDS = {
    "ball": {"center": (..., None), "radius": (0.5, float)},
    "modulus_exceeds": {"index": (1, int), "threshold": (1.0, float)},
    "modulus_ball": {"threshold": (0.5, float)},
    "weakstar": {"center": (..., None), "functionals": (3, int), "eps": (0.5, float)},
}


def parse_weights(spec, where: str = "weights"):
    family = _kind(spec, "family", WEIGHT_FAMILIES, where, "weight family")
    make, fields = WEIGHT_FAMILIES[family]
    params = _read(spec, {"family": (..., None), **fields}, where)
    del params["family"]
    try:
        return make(*params.values())
    except (ShiftLabError, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_space(spec, where: str = "space") -> SpaceSpec:
    spec = _read(spec, SPACE_FIELDS, where)
    kind = spec["kind"]
    make = {"lp": lambda: lp(spec["p"], spec["domain"]), "c0": lambda: c0(spec["domain"]),
            "entire": lambda: entire(spec["rmax"]), "linf_weakstar": linf_weakstar}
    if not isinstance(kind, str) or kind not in make:
        raise ConfigError(f"{where}: unknown space kind {kind!r}")
    try:
        return make[kind]()
    except ShiftLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_vector(spec, domain: str, where: str = "vector") -> CoeffVector:
    spec = _read(spec, VECTOR_FIELDS, where)
    if spec["basis"] is not None and spec["entries"] is not None:
        raise ConfigError(f"{where}: give 'basis' or 'entries', not both")
    if spec["basis"] is not None:
        return CoeffVector.basis(spec["basis"], domain)
    if spec["entries"] is not None:
        return CoeffVector(domain, spec["entries"])
    raise ConfigError(f"{where}: need 'basis' or 'entries'")


def parse_target(spec, domain: str, where: str = "target"):
    kind = _kind(spec, "kind", TARGET_KINDS, where, "target kind")
    t = _read(spec, {"kind": (..., None), **TARGET_KINDS[kind]}, where)
    if kind == "modulus_exceeds":
        return ctor.modulus_exceeds(t["index"], t["threshold"])
    if kind == "modulus_ball":
        return ctor.modulus_ball(t["threshold"])
    center = parse_vector(t["center"], domain, f"{where}.center")
    if kind == "ball":
        return ctor.BallTarget(center, t["radius"])
    return ctor.WeakStarTarget(center, ctor.coordinate_functionals(t["functionals"], domain),
                               t["eps"])


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file that replaces ``path`` only once it is fully written,
    with the mode a plain ``open`` would give it (0666 less the umask, not
    ``mkstemp``'s 0600)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: str):
    with _atomic_file(path) as fh:
        fh.write(data)


def _changes(column) -> np.ndarray:
    """Whether each cell of a numpy chunk after its first differs from the
    cell before it, compared as bytes: 0.0 next to -0.0 starts a new run
    of equal cells, and a run of NaNs stays one run."""
    if column.dtype.kind == "f":
        column = column.view(f"i{column.itemsize}")
    return column[1:] != column[:-1]


def _groups(mag: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with the len(out) lowest 4-digit groups of uint64 ``mag``
    in its rows, most significant first; each row holds the rest of the
    number until its group is split off."""
    out[-1] = mag
    scratch = np.empty_like(out[0])
    for j in range(len(out) - 1, 0, -1):
        high = np.floor_divide(out[j], _U64(10000), out=out[j - 1])
        out[j] -= np.multiply(high, _U64(10000), out=scratch)
    return out


def _put_groups(words, groups, pad: int, pad_one: int, reverse: bool = False) -> None:
    """words[:, j] = the text of groups[j]; zero digits met before the first
    nonzero one, scanning from the first group (the last if ``reverse``),
    are pads, and the last group scanned keeps one 0."""
    order = range(len(groups))[::-1] if reverse else range(len(groups))
    seen = np.zeros(groups.shape[1], bool)
    for j in order:
        state = pad_one if j == order[-1] else pad
        # clipped: the cells repr writes may hold any group
        words[:, j] = np.take(_digit_words(), groups[j] + ~seen * _U64(state), mode="clip")
        seen |= groups[j] != 0


def _number_text(mag, neg, frac=None) -> np.ndarray:
    """One row of bytes per cell: '-' where ``neg``, the digits of uint64
    ``mag`` and, given ``frac``'s 4-digit groups, '.' and those digits up
    to the last nonzero one; the rest are pads."""
    digits = len(str(mag.max()))
    groups = -(-digits // 4)
    words = np.zeros((len(mag), 1 + groups + (0 if frac is None else 1 + len(frac))), np.uint32)
    _put_groups(words[:, 1 : 1 + groups], _groups(mag, np.empty((groups, len(mag)), np.uint64)),
                _LEAD, _LEAD1)
    if frac is not None:
        words[:, 1 + groups] = 46  # '.' and 3 pads
        _put_groups(words[:, 2 + groups :], frac, _TRAIL, _TRAIL1, reverse=True)
    text = words.view(np.uint8)
    text[neg, 3] = 45  # '-' in the pad word ahead of the digits
    end = text.shape[1]  # less the last word's pad bytes on every row
    if frac is not None:
        end -= 4 - len(np.bitwise_or.reduce(words[:, -1]).tobytes().rstrip(b"\0"))
    return text[:, 3 if neg.any() else 4 + 4 * groups - digits : end]


def _shift_product(m, p, u):
    """(floor(m p 2^-u), m p mod 2^u) for m < 2^53, p < 2^47 and
    1 <= u < 64: m p < 2^100 in two 64-bit limbs, from 32-bit halves.
    In place, in five buffers: ``m`` is overwritten."""
    m32, b32 = _U64(0xFFFFFFFF), _U64(32)
    mh, pl, t = m >> b32, p & m32, p >> b32
    ml = np.bitwise_and(m, m32, out=m)
    ll = ml * pl
    # each other product in the buffer of a factor it was the last use of
    lh, hl, hi = np.multiply(ml, t, out=ml), np.multiply(mh, pl, out=pl), np.multiply(mh, t, out=mh)
    hi += np.right_shift(lh, b32, out=t)
    hi += np.right_shift(hl, b32, out=t)
    mid = np.right_shift(ll, b32, out=t)
    mid += np.bitwise_and(lh, m32, out=lh)
    mid += np.bitwise_and(hl, m32, out=hl)
    hi += np.right_shift(mid, b32, out=lh)
    lo = np.bitwise_and(ll, m32, out=ll)
    lo |= np.left_shift(mid, b32, out=mid)
    hi <<= np.subtract(_U64(64), u, out=hl)
    hi |= np.right_shift(lo, u, out=lh)
    lo &= np.subtract(np.left_shift(_U64(1), u, out=t), _U64(1), out=t)
    return hi, lo


def _shortest(x: np.ndarray):
    """(c, kt, exact, floor |x|): where ``exact``, c / 10^kt is the decimal
    repr writes for |x|, the fewest significant digits that read back as
    x and of those the nearest to x.  In uint64 arithmetic, |x| = m 2^e
    is scaled to 17 digits, m 5^k 2^-u with k = 16 - floor(log10 |x|),
    and the 15-, 16- and 17-digit decimals on either side of it are tested
    against the half-ulp gaps around x.  Not ``exact``: |x| outside
    [1e-4, 1e15) (NaN, ±inf and ±0.0 among them), a log10 off by one and
    a tie between the two nearest decimals."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e15)
    np.copyto(a, 1.0, where=~exact)
    bits = a.view(np.uint64)
    m = bits & _U64((1 << 52) - 1)
    # In units of 2^-u the gap above x is 5^k / 2, and so is the gap below
    # but at a power of two (m = 2^52), where it is 5^k / 4: a distance r
    # below x is inside the gap when r << below < 5^k.  In range no decimal
    # of 17 digits or fewer lies on a gap's edge (such a midpoint has 19 or
    # more), so the tests are strict.
    below = (m == 0).view(np.uint8) + np.uint8(1)
    m |= _U64(1 << 52)
    kt = (16 - np.floor(np.log10(a))).astype(np.uint64)  # k; the loop takes off the digits it drops
    u = _U64(1075) - (bits >> _U64(52)) - kt  # 1 <= u <= 46 in range
    p = np.take(_POW5, kt, mode="clip")
    q, rem = _shift_product(m, p, u)  # floor(|x| 10^k), and the rest in units of 2^-u
    exact &= (q >= _POW10[16]) & (q < _POW10[17])  # 17 digits: log10 was right
    one = np.left_shift(_U64(1), u, out=u)
    c = q + (rem * _U64(2) > one)  # the nearest 17-digit decimal is always inside
    exact &= rem * _U64(2) != one
    for d in (1, 2):  # 16 digits, then 15: the shortest wins
        unit = _POW10[d]
        base = q // unit
        r = (q - base * unit) * one + rem  # distance down to base, unit - r up
        up = unit * one - r
        in_lo, in_hi = (r << below) < p, up * _U64(2) < p
        inside = in_lo | in_hi
        np.copyto(c, base + (in_hi & ~(in_lo & (r <= up))), where=inside)
        kt -= inside
        exact &= ~(in_lo & in_hi & (r == up))
    return c, kt, exact, a.astype(np.uint64)


def _float_text(column, spell=float.__repr__) -> np.ndarray:
    """One row of bytes per cell of a float column: repr's text, and pads;
    ``spell`` writes the cells outside the digit kernel."""
    x = column.astype(np.float64, copy=False)
    c, kt, exact, ip = _shortest(x)
    # The integer part is floor |x|: an integer between x and its repr
    # would round to x.  The fraction's kt digits go into 20 digits: the
    # first 12 from f // cut, the last 8 from f % cut.
    scale, cut, hi, lo = _FRACTION
    t = np.take(scale, kt, mode="clip")
    f = np.subtract(c, np.multiply(t, ip, out=t), out=c)
    fhi = f // np.take(cut, kt, mode="clip", out=t)
    f -= np.multiply(fhi, t, out=t)
    fhi *= np.take(hi, kt, mode="clip", out=t)
    f *= np.take(lo, kt, mode="clip", out=t)
    frac = np.empty((5, len(x)), np.uint64)
    _groups(fhi, frac[:3])
    _groups(f, frac[3:])
    frac = frac[: 1 + np.flatnonzero(frac.any(axis=1)).max(initial=0)]
    text = _number_text(ip, np.signbit(x) & exact, frac)
    fallback = np.flatnonzero(~exact)
    if len(fallback):
        # a float's repr, and its json.dumps, is at most 24 bytes
        rep = np.fromiter(map(spell, x[fallback]), "S24", len(fallback))
        rep = rep.view(np.uint8).reshape(len(fallback), 24)
        rep = rep[:, : np.count_nonzero(rep.any(axis=0))]
        if rep.shape[1] > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, rep.shape[1] - text.shape[1])))
        text[fallback] = 0
        text[fallback, : rep.shape[1]] = rep
    return text


def _text(column, json_cells: bool) -> np.ndarray:
    """One row of bytes per cell of a numpy column, as str writes it, or
    with ``json_cells`` as json.dumps does (bools and non-finite floats)."""
    if column.dtype.kind == "f":
        return _float_text(column, json.dumps if json_cells else float.__repr__)
    if column.dtype.kind == "b":
        return _BOOL_TEXT[int(json_cells)][column.view(np.uint8)][:, int(column.all()) :]
    mag, neg = column.astype(np.uint64), column < 0
    np.negative(mag, out=mag, where=neg)
    return _number_text(mag, neg)


def _writer_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _cell_items(column, json_cells: bool) -> np.ndarray:
    """``_text`` of each cell of a numpy column as one fixed-width item,
    made once for each run of equal cells."""
    starts = np.flatnonzero(np.concatenate(([True], _changes(column))))
    runs = len(starts) < len(column)  # some run of equal cells is longer than one
    text = _text(column[starts] if runs else column, json_cells)
    text = text.view(f"V{text.shape[1]}")[:, 0]  # a cell's bytes as one item
    return text.repeat(np.diff(starts, append=len(column))) if runs else text


def _chunk_bytes(chunk, seps, json_cells: bool, scalar_rows) -> bytes:
    """The bytes of one chunk of rows.  A chunk of at least _WRITER_ROWS
    rows of numpy bool, int and float columns goes through the row kernel:
    row i is seps[0], cell i of the first column, seps[1], ..., cell i of
    the last column and seps[-1], each cell as ``_text`` writes it.  The
    text of each run of equal cells is made once, as a row of bytes with 0
    bytes as pads, and spread over a row matrix, one row per output row,
    whose pads are then dropped.  Any other chunk goes to ``scalar_rows``
    as rows of Python scalars."""
    if len(chunk[0]) < _WRITER_ROWS or not all(
            isinstance(c, np.ndarray) and c.dtype.kind in "biuf" and c.itemsize <= 8
            for c in chunk):
        return scalar_rows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                 for c in chunk)))
    cells = [_cell_items(c, json_cells) for c in chunk]
    width = sum(map(len, seps)) + sum(c.itemsize for c in cells)
    buf = bytearray(len(chunk[0]) * width)  # translate drops the pads without a copy
    matrix = np.frombuffer(buf, np.uint8).reshape(-1, width)
    at = 0
    for sep, c in zip(seps, cells + [None]):
        matrix[:, at : at + len(sep)] = np.frombuffer(sep, np.uint8)
        at += len(sep)
        if c is not None:
            matrix[:, at : at + c.itemsize].view(c.dtype)[:, 0] = c
            at += c.itemsize
    cells.clear()  # in the matrix now: freed before translate copies it
    return buf.translate(None, b"\0")


def _formatted(columns, seps, json_cells: bool, scalar_rows):
    """``_chunk_bytes`` of each CSV_CHUNK_ROWS rows of ``columns``, in
    order.  With a numpy float column, a worker thread formats chunk 2i+1
    while this one formats chunk 2i: the float digits' numpy loops release
    the GIL.  The worker is joined before either is yielded, and its
    exception is raised here.  Int and bool chunks are formatted here
    alone: their steps mostly hold the GIL (np.take, integer division by a
    scalar, bytes.translate), and jsets.csv took 10.5 ms paired, 8.7 alone."""
    import threading  # only a paired write needs it (numpy's import has loaded it)

    paired = any(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns)
    chunks = ([c[lo : lo + CSV_CHUNK_ROWS] for c in columns]
              for lo in range(0, len(columns[0]) if len(columns) else 0, CSV_CHUNK_ROWS))
    for chunk in chunks:
        partner = next(chunks, None) if paired else None
        if partner is None:
            yield _chunk_bytes(chunk, seps, json_cells, scalar_rows)
            continue
        done = []

        def work():
            try:
                done.append(_chunk_bytes(partner, seps, json_cells, scalar_rows))
            except BaseException as exc:  # raised again on this thread
                done.append(exc)
        worker = threading.Thread(target=work)
        worker.start()
        try:
            first = _chunk_bytes(chunk, seps, json_cells, scalar_rows)
        finally:
            worker.join()
        if isinstance(done[0], BaseException):
            raise done[0]
        yield first
        yield done[0]


def write_csv(path: str, header, columns):
    """Write equal-length ``columns`` (numpy arrays or sequences) under a
    header row in csv.writer's bytes, chunk by chunk (``_formatted``)."""
    seps = [b""] + [b","] * (len(columns) - 1) + [b"\n"]
    with _atomic_file(path) as fh:
        fh.buffer.write(_writer_bytes([header]))
        for part in _formatted(columns, seps, False, _writer_bytes):
            fh.buffer.write(part)


def write_jsonl(path: str, keys, columns):
    """Write one JSON object per row of equal-length ``columns`` named by
    ``keys``, each line the bytes of json.dumps(record, sort_keys=True):
    through ``_formatted`` with the keys in the separators, JSON's spelling
    of bools and non-finite floats, and json.dumps for the other chunks,
    chunk by chunk as ``write_csv`` writes."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    seps = [f"{', ' if i else '{'}{json.dumps(k)}: ".encode() for i, k in enumerate(keys)]

    def dumps(rows):
        return "".join(json.dumps(dict(zip(keys, row)), sort_keys=True) + "\n"
                       for row in rows).encode()
    with _atomic_file(path) as fh:
        fh.buffer.writelines(_formatted([columns[i] for i in order], seps + [b"}\n"], True, dumps))


def _indented_json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indentation
    ``pad``, with the same bytes for JSON-loaded values (string keys).
    That call runs the pure-Python encoder, since the C one does not
    indent; here each list of scalars goes to the C encoder whole, with the
    line break and indentation as its item separator, and only dicts and
    nested lists recurse.  Whether a list holds only scalars is read off
    the set of its element types."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, dict):
        body = (",\n" + inner).join(f"{json.dumps(key)}: {_indented_json(v, inner)}"
                                    for key, v in sorted(value.items()))
        return "{\n" + inner + body + "\n" + pad + "}"
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
        body = (",\n" + inner).join(_indented_json(v, inner) for v in value)
    else:
        body = json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
    return "[\n" + inner + body + "\n" + pad + "]"


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _scenario(**fields) -> dict:
    """A scenario's config fields: the common ones and ``fields``."""
    return {"scenario": (..., None), "out": (".", None), "horizon": (10**4, int), **fields}


# scenario -> key -> (default, converter), as ``_read`` takes them; the
# objects (space, weights, vector, target, center) are read by parse_*
FIELDS = {
    "density": _scenario(times=(..., list), q=(1, int), burn_in=(None, int)),
    "jsets": _scenario(nseq=(..., _ints)),
    "criterion": _scenario(space=({}, None), weights=(..., None), q=(1, int),
                           indices=([1, 2, 3, 4, 5], _ints), max_exp=(crit.DEFAULT_MAX_EXP, int)),
    "construct": _scenario(space=({}, None), weights=(..., None), q=(1, int), k=(3, int)),
    "orbit": _scenario(space=({}, None), weights=(..., None), vector=(..., None),
                       target=(..., None), q=(1, int), exponents=("linear", None),
                       direction=(BACKWARD, None), rotation=(None, _complex), power=(1, int),
                       burn_in=(None, int)),
    "weakstar": _scenario(weights=(..., None), vector=(..., None), center=(..., None),
                          functionals=(3, int), eps=(0.5, float), burn_in=(None, int)),
    "sweep": _scenario(space=({}, None), grid=(..., list), q_values=(..., _ints),
                       indices=([0, 1, 2, 3, 4], _ints), max_exp=(crit.DEFAULT_MAX_EXP, int),
                       mode=("offsets", None)),  # 'offsets' (scalar condition) or 'basis'
}


def _resolve(config: dict, args, scenario: str) -> dict:
    """The config read through the scenario's ``FIELDS``: defaults filled
    and flags applied, written to ``config.resolved.json`` in the output
    directory as given (``horizon`` converted), then converted."""
    fields = FIELDS[scenario]
    cfg = _read(config, fields, "config", convert=False)
    for key in ("out", "horizon"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["horizon"] = _convert(int, cfg["horizon"], "config.horizon")
    path = os.path.join(cfg["out"], "config.resolved.json")
    atomic_write(path, _indented_json(cfg) + "\n")
    print(f"resolved config: {path}")
    return _read(cfg, fields, "config")


def run_density(config: dict, args) -> int:
    cfg = _resolve(config, args, "density")
    hs = dens.HitSet.from_iterable(cfg["times"], cfg["horizon"])
    est = dens.q_lower_density(hs, cfg["q"], burn_in=cfg["burn_in"])
    write_csv(os.path.join(cfg["out"], "density_profile.csv"), ["N", "count", "p_N"],
              est.profile.columns)
    print(
        f"q={est.q} lower-density estimate {est.value:.6g} "
        f"(burn-in {est.burn_in}, {len(hs)} hit times, horizon {hs.horizon})"
    )
    return EXIT_OK


def run_jsets(config: dict, args) -> int:
    cfg = _resolve(config, args, "jsets")
    fam = dens.generate_jsets(cfg["nseq"], horizon=cfg["horizon"])
    report = dens.verify_jsets(fam)
    pos, label = fam.walk.columns
    by_class = np.argsort(label, kind="stable")
    write_csv(os.path.join(cfg["out"], "jsets.csv"), ["class", "element"],
              [label[by_class], pos[by_class]])
    write_csv(os.path.join(cfg["out"], "jsets_densities.csv"), ["class", "density"],
              [np.arange(1, fam.k_classes + 1), np.array(report.class_densities)])
    print(
        f"classes={fam.k_classes} elements={len(fam.walk)} "
        f"disjoint={report.disjoint} gap_violations={len(report.gap_violations)} "
        f"min_violations={len(report.min_bound_violations)}"
    )
    return EXIT_OK if report.ok else EXIT_REFUSED


def run_criterion(config: dict, args) -> int:
    cfg = _resolve(config, args, "criterion")
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    report = crit.qfhc_check(space, w, cfg["q"], cfg["indices"], max_exp=cfg["max_exp"])
    write_csv(os.path.join(cfg["out"], "criterion.csv"),
              ["series", "verdict", "rule", "sum_estimate"],
              list(zip(*[(e.label, e.verdict.kind, e.verdict.rule, e.verdict.sum_estimate)
                         for e in report.entries])))
    print(f"operator: {report.operator}\nspace: {report.space}\noverall: {report.overall}")
    return EXIT_OK if report.satisfied else EXIT_REFUSED


def run_construct(config: dict, args) -> int:
    cfg = _resolve(config, args, "construct")
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    targets = ctor.canonical_targets(cfg["k"], w.domain)
    try:
        plan = ctor.build_vector(space, w, cfg["q"], targets, horizon=cfg["horizon"])
    except ConstructionRefusedError as exc:
        print(f"construction refused: {exc}")
        if exc.report is not None:
            for e in exc.report.entries:
                print(f"  {e.label}: {e.verdict.kind} [{e.verdict.rule}]")
        return EXIT_REFUSED
    report = ctor.verify_eq33(plan)
    index, c = plan.candidate.terms
    write_csv(os.path.join(cfg["out"], "candidate.csv"), ["index", "re", "im"],
              [index, c.real, c.imag])
    write_csv(os.path.join(cfg["out"], "eq33.csv"), ["class", "m", "error", "bound", "ok"],
              [report.k, report.m, report.error, report.bound, report.passed])
    for msg in plan.warnings:
        print(f"warning: {msg}")
    print(
        f"Nseq={plan.nseq} support={len(plan.candidate.entries)} "
        f"checks={len(report.m)} edge_times={len(report.edge_times)} "
        f"violations={np.count_nonzero(~report.passed)}"
    )
    return EXIT_OK if report.ok else EXIT_REFUSED


def run_orbit(config: dict, args) -> int:
    cfg = _resolve(config, args, "orbit")
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    rotation = 1.0 if cfg["rotation"] is None else cfg["rotation"]
    op = OperatorSpec(w, cfg["direction"], rotation=rotation, power=cfg["power"])
    x = parse_vector(cfg["vector"], w.domain)
    target = parse_target(cfg["target"], w.domain)
    result = ctor.hit_experiment(
        space, op, x, target, exponents=cfg["exponents"], q=cfg["q"],
        horizon=cfg["horizon"], burn_in=cfg["burn_in"])
    write_jsonl(os.path.join(cfg["out"], "orbit_events.jsonl"), ctor.EVENT_KEYS,
                result.events.columns)
    write_csv(os.path.join(cfg["out"], "hits.csv"), ["time"], [result.hits.array])
    growth = (
        f"bounded C={result.growth.constant:.6g}"
        if result.growth and result.growth.bounded
        else ("unbounded" if result.growth else "n/a (no hits)")
    )
    print(
        f"target {result.target}: {len(result.hits)} hits, "
        f"density {result.density.value:.6g}, growth {growth}"
    )
    return EXIT_OK


def run_weakstar(config: dict, args) -> int:
    cfg = _resolve(config, args, "weakstar")
    w = parse_weights(cfg["weights"])
    x = parse_vector(cfg["vector"], w.domain)
    center = parse_vector(cfg["center"], w.domain, "center")
    functionals = ctor.coordinate_functionals(cfg["functionals"], w.domain)
    result = ctor.transfer_weakstar(w, x, functionals, center, eps=cfg["eps"],
                                    horizon=cfg["horizon"], burn_in=cfg["burn_in"])
    write_jsonl(os.path.join(cfg["out"], "weakstar_events.jsonl"), ctor.EVENT_KEYS,
                result.events.columns)
    write_csv(os.path.join(cfg["out"], "hits.csv"), ["time"], [result.hits.array])
    print(
        f"weak* target {result.target}: {len(result.hits)} hits, "
        f"density {result.density.value:.6g}"
    )
    return EXIT_OK


def run_sweep(config: dict, args) -> int:
    cfg = _resolve(config, args, "sweep")
    grid, qs = cfg["grid"], cfg["q_values"]
    if not grid or not qs:
        raise ConfigError("sweep grid and q_values must be nonempty")
    if len(grid) * len(qs) > MAX_GRID:
        print(f"sweep refused: grid size {len(grid) * len(qs)} exceeds {MAX_GRID}")
        return EXIT_REFUSED
    if cfg["mode"] not in ("offsets", "basis"):
        raise ConfigError(f"config.mode: unknown mode {cfg['mode']!r} (offsets or basis)")
    space = parse_space(cfg["space"])
    rows = []
    for i, wspec in enumerate(grid):
        w = parse_weights(wspec, f"config.grid[{i}]")
        row = [w.describe()]
        for q in qs:
            if cfg["mode"] == "offsets":
                report = crit.unilateral_condition(w, space, q, cfg["indices"],
                                                   max_exp=cfg["max_exp"])
            else:
                report = crit.qfhc_check(space, w, q, cfg["indices"], max_exp=cfg["max_exp"])
            row.append(report.overall)
        rows.append(row)
    write_csv(os.path.join(cfg["out"], "sweep.csv"), ["weights"] + [f"q={q}" for q in qs],
              list(zip(*rows)))
    for row in rows:
        print("  ".join(str(c) for c in row))
    return EXIT_OK


SCENARIOS = {
    "density": run_density,
    "jsets": run_jsets,
    "criterion": run_criterion,
    "construct": run_construct,
    "orbit": run_orbit,
    "weakstar": run_weakstar,
    "sweep": run_sweep,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: a subparser per scenario made it six times slower to build."""
    parser = argparse.ArgumentParser(
        "shiftlab", description="Weighted-shift density, criterion, and orbit experiments")
    parser.add_argument("command", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", required=True, metavar="PATH", help="JSON scenario config")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--horizon", type=int, metavar="N")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error, or --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                print(
                    f"config error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(config, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return EXIT_USAGE
    declared = config.get("scenario", args.command)
    if declared != args.command:
        print(
            f"config error: scenario {declared!r} does not match command "
            f"{args.command!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    config["scenario"] = args.command
    start = time.monotonic()
    try:
        code = SCENARIOS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ShiftLabError, OverflowError) as exc:
        # OverflowError: Python float arithmetic past double range (an F-norm
        # or orbit distance past it is a ResourceLimitError)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    print(f"elapsed: {time.monotonic() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
