"""Documents in and out: every input value is read and converted here, and
refused with a ``ValueError`` naming its field or CSV line; :func:`positive`,
:func:`nonnegative` and :func:`finite` are the one check, for every record
and function of the library, that a number is finite and inside its bound;
artifacts are written here as strict JSON, with stable serialization and
atomic replace."""

import csv
import io
import json
import math
import os
import tempfile


class UnknownName(KeyError):
    """A name from the input that its table lacks. It prints as its
    message, where a plain ``KeyError`` prints the repr of its key."""

    def __str__(self):
        return str(self.args[0])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def as_object(value, what: str, keys=None) -> dict:
    """A JSON object; with ``keys``, the set of keys it may hold, any other
    key is refused, naming it and the nearest accepted key."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    if keys is not None:
        for key in value:
            if key not in keys:
                import difflib  # only a refusal needs it

                accepted = sorted(keys)
                near = difflib.get_close_matches(key, accepted, n=1) if isinstance(key, str) else []
                hint = f"did you mean {near[0]!r}?" if near else "it takes " + ", ".join(map(repr, accepted))
                raise ValueError(f"{what} has an unknown key {key!r}; {hint}")
    return value


def as_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ValueError(f"{what} must have {length} entries, got {len(value)}")
    return value


def as_objects(value, what: str, entry: str, keys) -> list[tuple[str, dict]]:
    """A JSON list of objects with ``keys`` (see :func:`as_object`) as
    ``(name, object)`` pairs, named ``f"{entry} {k}"``."""
    return [(f"{entry} {k}", as_object(v, f"{entry} {k}", keys)) for k, v in enumerate(as_list(value, what))]


def as_text(value, what: str, optional: bool = False) -> str | None:
    """A string; with ``optional``, ``null`` passes as ``None``."""
    if not (isinstance(value, str) or (optional and value is None)):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def positive(what: str, x) -> float:
    """``x`` as a float if it is finite and above zero; any other value, NaN,
    an infinity and ``None`` included, raises ValueError naming ``what``."""
    return _bounded(what, x, 0.0, False, " and above zero")


def nonnegative(what: str, x) -> float:
    """As :func:`positive`, for a value finite and not below zero."""
    return _bounded(what, x, 0.0, True, " and not below zero")


def finite(what: str, x) -> float:
    """As :func:`positive`, for a signed value: finite is its only bound."""
    return _bounded(what, x, -math.inf, False, "")


def _bounded(what, x, low: float, low_allowed: bool, bound: str) -> float:
    try:
        if (low <= x if low_allowed else low < x) and x < math.inf:
            return float(x)
        x = float(x)  # shown as the float it is, not as a numpy repr
    except TypeError:
        pass
    raise ValueError(f"{what} must be finite{bound}, got {x!r}")


def as_number(value, what: str) -> float:
    """A JSON number as a float, refused unless finite and unless it fits a
    float; bools are refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} is not finite: {value!r}")
    return x


def as_int(value, what: str) -> int:
    x = as_number(value, what)
    if not x.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(x)


def read_csv(lines, what: str, required, optional=()) -> list[dict]:
    """Rows of a headed CSV table as dicts of finite floats, blank lines skipped.

    An absent ``optional`` column, or an empty cell of one, reads as ``None``.
    A missing ``required`` column or cell, a row longer or shorter than the
    header and a cell that is not a finite number are refused.
    """
    reader = csv.reader(lines)
    header = next(reader, [])
    for name in required:
        if name not in header:
            raise ValueError(f"{what} has no column {name!r}")
    columns = [(name, header.index(name)) for name in (*required, *optional) if name in header]
    rows = []
    for cells in filter(None, reader):
        where = f"{what} line {reader.line_num}"
        if len(cells) != len(header):
            raise ValueError(f"{where} has {len(cells)} cells, the header {len(header)}")
        row = dict.fromkeys(optional)
        for name, k in columns:
            if cells[k] or name in required:
                try:
                    row[name] = float(cells[k])
                except ValueError:
                    raise ValueError(f"{where}: {name} must be a number, got {cells[k]!r}") from None
                if not math.isfinite(row[name]):
                    raise ValueError(f"{where}: {name} is not finite: {cells[k]!r}")
        rows.append(row)
    return rows


def fit_weights(sigma, given):
    """The weights ``1/sigma**2`` of a weighted fit, as a numpy array.

    ``sigma`` are the uncertainties the fit divides by, computed from the
    caller's ``given`` ones; a weight that is not finite and above zero
    raises ValueError naming the ``given`` sigma it came from. Every fit
    checks its weights here.
    """
    import numpy as np  # a fit has loaded it; this module must not

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / np.asarray(sigma, dtype=float) ** 2
    for s, wi in zip(np.asarray(given, dtype=float).tolist(), w.tolist()):
        if not 0.0 < wi < math.inf:
            raise ValueError(f"sigma {s!r} gives the weight 1/sigma**2 = {wi!r}; it must be finite and above zero")
    return w


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    A partially written artifact is never observable: the temp file lives in
    the destination directory so the final ``os.replace`` is atomic on the
    same filesystem. An ``OSError`` names ``path``, not the temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.
    A number that is not finite raises ValueError: strict JSON has none."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
