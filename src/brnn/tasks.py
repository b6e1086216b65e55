"""Synthetic sequence-regression tasks and the CSV interchange format.

Three generators:
  sine_track      s_k = sin(omega*k + phase) (+ noise), d_k = sin(omega*(k+1) + phase)
  bandpass_filter s_k = uniform noise, d_k = second-order stable filter of s
  lag_copy        s_k = uniform noise, d_k = s_{k-lag} (zeros before the lag)

Noise comes from the SplitMix 64-bit generator (Steele, Lea and Flood,
2014) so datasets are reproducible across implementations: state advances
by the golden-gamma constant, the output is finalized by two xor-multiply
rounds, and the top 53 bits are mapped to [0, 1). Uniform noise in
[-amp, amp) is amp*(2u - 1). The seed is taken modulo 2^64, so any integer
is a valid seed.

CSV schema: header "k,s1..sm,d1..dr", one row per step k = 0..N, floats
printed with full round-trip precision.
"""

import csv
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, DatasetFormatError
from .model import Sequence

TASK_KINDS = ("sine_track", "bandpass_filter", "lag_copy")

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def uniform_noise(seed: int, shape, amp: float) -> np.ndarray:
    """Array of i.i.d. uniform samples in [-amp, amp).

    Sample i is draw i+1 of the generator seeded with `seed`, computed for
    all i at once: the state after i+1 advances is seed + (i+1)*gamma, and
    np.uint64 array arithmetic wraps modulo 2^64 as a one-draw-at-a-time
    generator masks (tests/test_tasks.py keeps one as the reference).
    """
    n = int(np.prod(shape))
    u64 = np.uint64
    z = np.arange(1, n + 1, dtype=u64) * u64(_GAMMA) + u64(seed & _MASK64)
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    z ^= z >> u64(31)
    u = (z >> u64(11)) * 2.0 ** -53
    return (amp * (2.0 * u - 1.0)).reshape(shape)


@dataclass
class TaskSpec:
    kind: str
    N: int
    m: int = 1
    r: int = 1
    omega: float = 0.3           # sine_track frequency
    phase: float = 0.0           # sine_track phase
    coeffs: tuple = (1.2, -0.72, 1.0)   # (a1, a2, b0): d_k = a1 d_{k-1} + a2 d_{k-2} + b0 s_k
    lag: int = 1                 # lag_copy delay
    noise: float = 0.0           # uniform noise amplitude (0 = default 1.0 for noise-driven tasks)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind {self.kind!r}")
        if self.N < 1:
            raise ConfigurationError("N must be >= 1")
        if self.m < 1 or self.r < 1:
            raise ConfigurationError("m and r must be >= 1")
        if self.kind == "lag_copy" and not 0 <= self.lag < self.N:
            raise ConfigurationError(f"lag must satisfy 0 <= lag < N, got {self.lag}")
        if self.kind in ("lag_copy", "bandpass_filter") and self.r > self.m:
            raise ConfigurationError(f"{self.kind} requires r <= m")
        if not 0.0 <= self.noise < np.inf:
            raise ConfigurationError(f"noise must be finite and >= 0, got {self.noise!r}")
        if self.kind == "bandpass_filter":
            if len(self.coeffs) != 3 or not np.isfinite(self.coeffs).all():
                raise ConfigurationError(
                    f"coeffs must be three finite numbers, got {self.coeffs!r}")
            a1, a2, _ = self.coeffs
            roots = np.roots([1.0, -a1, -a2])
            if roots.size and np.abs(roots).max() >= 1.0:
                raise ConfigurationError(
                    f"filter poles {roots} not strictly inside the unit circle")


def _filter(coeffs, s: np.ndarray) -> np.ndarray:
    """d_k = b0 s_k + a1 d_{k-1} + a2 d_{k-2}, added in that order, with the
    terms before k = 0 left out rather than added as zeros."""
    a1, a2, b0 = coeffs
    # on Python floats: the same double arithmetic as on NumPy scalars, at a
    # fraction of the cost per operation
    d = []
    for k, s_k in enumerate(s.tolist()):
        d_k = b0 * s_k
        if k >= 1:
            d_k += a1 * d[-1]
        if k >= 2:
            d_k += a2 * d[-2]
        d.append(d_k)
    return np.array(d)


def gen_task(spec: TaskSpec) -> Sequence:
    """Deterministically generate the task's input/target sequence."""
    rows = spec.N + 1
    if spec.kind == "sine_track":
        k = np.arange(rows)
        base = np.sin(spec.omega * k + spec.phase)
        s = np.tile(base[:, None], (1, spec.m))
        if spec.noise > 0.0:
            s = s + uniform_noise(spec.seed, (rows, spec.m), spec.noise)
        d = np.tile(np.sin(spec.omega * (k + 1) + spec.phase)[:, None], (1, spec.r))
        return Sequence(s=s, d=d)

    amp = spec.noise if spec.noise > 0.0 else 1.0
    s = uniform_noise(spec.seed, (rows, spec.m), amp)
    if spec.kind == "bandpass_filter":
        d = np.column_stack([_filter(spec.coeffs, s[:, j]) for j in range(spec.r)])
    else:  # lag_copy
        d = np.zeros((rows, spec.r))
        d[spec.lag:] = s[:rows - spec.lag, :spec.r]
    return Sequence(s=s, d=d)


def write_csv(seq: Sequence, path) -> None:
    """Write the dataset with full round-trip float precision."""
    lines = [",".join(["k", *(f"s{j + 1}" for j in range(seq.m)),
                       *(f"d{j + 1}" for j in range(seq.r))])]
    for k, (s_k, d_k) in enumerate(zip(seq.s.tolist(), seq.d.tolist())):
        lines.append(",".join([str(k), *map(repr, s_k), *map(repr, d_k)]))
    # the bytes csv.writer writes: no field needs quoting, rows end in \r\n
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def _parse_header(fields):
    if not fields or fields[0] != "k":
        raise DatasetFormatError("header must start with 'k'", line=1)
    m = 0
    i = 1
    while i < len(fields) and fields[i] == f"s{m + 1}":
        m += 1
        i += 1
    r = 0
    while i < len(fields) and fields[i] == f"d{r + 1}":
        r += 1
        i += 1
    if i != len(fields) or m < 1 or r < 1:
        raise DatasetFormatError(
            f"header must be k,s1..sm,d1..dr, got {','.join(fields)}", line=1)
    return m, r


def read_csv(path) -> Sequence:
    """Parse a dataset written by write_csv; errors carry the line number.

    The body is parsed in bulk. A file the bulk parse does not accept
    (quoting, blank lines, any error) is parsed again row by row, which
    accepts the same files and names the line of the first error.
    """
    try:
        with open(path, newline="") as f:
            parsed = _parse_bulk(f.read())
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not a text file ({exc})") from None
    m, data = parsed if parsed is not None else _parse_rows(path)
    return Sequence(s=data[:, :m].copy(), d=data[:, m:].copy())


# line breaks str.splitlines honours and csv.reader does not
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _parse_bulk(text):
    """(m, data) of a well-formed file without quoting or blank lines, with
    the fields read_csv's row-by-row parse would see; else None."""
    if '"' in text or any(c in text for c in _OTHER_LINE_BREAKS):
        return None
    lines = text.splitlines()
    try:
        m, r = _parse_header(lines[0].split(","))
    except (IndexError, DatasetFormatError):
        return None
    body = lines[1:]
    if len(body) < 2 or set(map(str.count, body, repeat(","))) != {m + r}:
        return None
    if max(map(len, body)) > csv.field_size_limit():
        return None         # may hold a field csv.reader refuses
    data = np.empty((len(body), m + r))
    # a chunk of lines at a time: only one chunk's field strings are alive
    for lo in range(0, len(body), 2048):
        chunk = body[lo:lo + 2048]
        fields = ",".join(chunk).split(",")
        if fields[::1 + m + r] != list(map(str, range(lo, lo + len(chunk)))):
            return None
        del fields[::1 + m + r]
        try:
            values = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:
            return None
        data[lo:lo + len(chunk)] = values.reshape(len(chunk), m + r)
    return (m, data) if np.isfinite(data).all() else None


def _csv_rows(f):
    """csv.reader's rows; its errors (such as a field longer than
    csv.field_size_limit()) as DatasetFormatError naming the line."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetFormatError(str(exc), line=reader.line_num) from None


def _parse_rows(path):
    """(m, data), one row at a time; raises DatasetFormatError naming the
    line of the first error."""
    with open(path, newline="") as f:
        reader = _csv_rows(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty file", line=1) from None
        m, r = _parse_header(header)
        rows, linenos = [], []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != 1 + m + r:
                raise DatasetFormatError(
                    f"expected {1 + m + r} columns, got {len(fields)}", line=lineno)
            k = len(rows)     # blank lines are skipped, so not lineno - 2
            if fields[0] != str(k):
                raise DatasetFormatError(
                    f"expected k={k}, got {fields[0]!r}", line=lineno)
            try:
                rows.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise DatasetFormatError(str(exc), line=lineno) from None
            linenos.append(lineno)
    data = np.array(rows, dtype=float).reshape(-1, m + r)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise DatasetFormatError("non-finite value", line=linenos[bad[0]])
    if len(rows) < 2:
        raise DatasetFormatError(
            f"need at least 2 rows (N >= 1), got {len(rows)}", line=len(rows) + 1)
    return m, data
