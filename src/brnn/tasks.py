r"""Synthetic sequence-regression tasks and the CSV interchange format.

Three generators:
  sine_track      s_k = sin(omega*k + phase) (+ noise), d_k = sin(omega*(k+1) + phase)
  bandpass_filter s_k = uniform noise, d_k = second-order stable filter of s
  lag_copy        s_k = uniform noise, d_k = s_{k-lag} (zeros before the lag)

Noise comes from the SplitMix 64-bit generator (Steele, Lea and Flood,
2014) so datasets are reproducible across implementations: state advances
by the golden-gamma constant, the output is finalized by two xor-multiply
rounds, and the top 53 bits are mapped to [0, 1). Uniform noise in
[-amp, amp) is amp*(2u - 1). The seed (>= 0, brnn.model.check_seed) is
taken modulo 2^64. split_seed(seed) is the seed of a second stream split
off the one seeded with `seed`: that stream's first output, as the split
of Steele et al. takes it. brnn.trainer.init_params draws the initial
parameters from the stream seeded with split_seed(seed), so `train --task
lag|bandpass`, which feeds one seed to the dataset noise and to that draw,
gets initial weights that are not a scaled copy of its inputs.

CSV schema: header "k,s1..sm,d1..dr" (csv_header, which write_csv writes
and read_csv checks), one row per step k = 0..N, floats printed with full
round-trip precision. read_csv's grammar: a line ends at \r\n, \r or \n
and nowhere else (\v, \f, \x85 or \u2028 in a field is whitespace to
float()), empty lines are skipped, every comma splits fields (there is no
quoting), k counts the rows from 0, and each value is read as float()
reads it and must be finite. The first line that breaks a rule is named.
"""

import math
import os
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

from .errors import ConfigurationError, DatasetFormatError
from .model import Sequence, check_seed, check_sizes

TASK_KINDS = ("sine_track", "bandpass_filter", "lag_copy")

# rows formatted or parsed at a time by write_csv and read_csv's bulk parse:
# only one chunk's strings are alive at once
_CHUNK_ROWS = 2048

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """Draws 1..n of the generator seeded with `seed`, as np.uint64.

    Draw i is computed for all i at once: the state after i advances is
    seed + i*gamma, and np.uint64 array arithmetic wraps modulo 2^64 as a
    one-draw-at-a-time generator masks (tests/test_tasks.py keeps one as
    the reference).
    """
    u64 = np.uint64
    z = np.arange(1, n + 1, dtype=u64) * u64(_GAMMA) + u64(seed & _MASK64)
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    z ^= z >> u64(31)
    return z


def split_seed(seed: int) -> int:
    """The seed of the stream split off the one seeded with `seed`: its
    first output."""
    return int(_splitmix64(seed, 1)[0])


def uniform_noise(seed: int, shape, amp: float) -> np.ndarray:
    """Array of i.i.d. uniform samples in [-amp, amp); sample i is draw
    i+1 of the generator seeded with `seed`."""
    # math.prod is exact where np.prod wraps: a count of 2^64 or more values
    # is refused by np.arange as too large, not taken as its remainder
    u = (_splitmix64(seed, math.prod(shape)) >> np.uint64(11)) * 2.0 ** -53
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
        # the fields in brnn.cli.KEYS' order; coeffs under every kind, also
        # one that does not read them
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind {self.kind!r}")
        check_sizes(N=self.N, m=self.m, r=self.r)
        if len(self.coeffs) != 3 or not all(map(math.isfinite, self.coeffs)):
            raise ConfigurationError(
                f"coeffs must be three finite numbers, got {self.coeffs!r}")
        if self.kind == "lag_copy" and not 0 <= self.lag < self.N:
            raise ConfigurationError(f"lag must satisfy 0 <= lag < N, got {self.lag}")
        if not 0.0 <= self.noise < math.inf:
            raise ConfigurationError(f"noise must be finite and >= 0, got {self.noise!r}")
        check_seed(self.seed)
        if self.kind in ("lag_copy", "bandpass_filter") and self.r > self.m:
            raise ConfigurationError(f"{self.kind} requires r <= m")
        if self.kind == "bandpass_filter":
            a1, a2, _ = self.coeffs
            roots = np.roots([1.0, -a1, -a2])
            if np.abs(roots).max() >= 1.0:
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


def csv_header(m: int, r: int) -> list:
    """The dataset's header fields for m inputs and r targets:
    k, s1..sm, d1..dr."""
    return ["k", *(f"s{j + 1}" for j in range(m)), *(f"d{j + 1}" for j in range(r))]


def write_csv(seq: Sequence, path) -> None:
    """Write the dataset with full round-trip float precision."""
    write_text(path, _csv_chunks(seq))


def _csv_chunks(seq: Sequence):
    """The dataset's text, the header and then a chunk of rows at a time,
    each formatted as it is asked for."""
    # the bytes csv.writer writes: no field needs quoting, rows end in \r\n
    yield ",".join(csv_header(seq.m, seq.r)) + "\r\n"
    for lo in range(0, seq.N + 1, _CHUNK_ROWS):
        s = seq.s[lo:lo + _CHUNK_ROWS].tolist()
        d = seq.d[lo:lo + _CHUNK_ROWS].tolist()
        yield "".join([",".join([str(k), *map(repr, s_k), *map(repr, d_k)])
                       + "\r\n" for k, s_k, d_k in zip(count(lo), s, d)])


def _parse_header(fields):
    """(m, r) of a header that csv_header(m, r) gives, m and r >= 1."""
    if fields[0] != "k":
        raise DatasetFormatError("header must start with 'k'", line=1)
    m = sum(field.startswith("s") for field in fields)
    r = len(fields) - 1 - m
    if m < 1 or r < 1 or fields != csv_header(m, r):
        raise DatasetFormatError(
            f"header must be k,s1..sm,d1..dr, got {','.join(fields)}", line=1)
    return m, r


def read_text(path, error) -> str:
    r"""The text of the file at `path`: UTF-8, whose byte-order mark is not
    part of the text, with \r\n, \r and \n each read as \n. Bytes that do
    not decode raise `error` "not a text file"."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file ({exc})") from None


def write_text(path, pieces) -> None:
    """Write the strings of `pieces` in turn to the file at `path`, newlines
    as given. A write that fails (or a piece that raises) removes the file
    (remove_file) before the error propagates, so no partial file is left."""
    f = open(path, "w", newline="")
    try:
        with f:
            for piece in pieces:
                f.write(piece)
    except BaseException:
        remove_file(path)
        raise


def remove_file(path) -> None:
    """Remove `path` if it is itself a regular file. A symlink, such as
    /dev/stdout, or a device is never removed."""
    if os.path.isfile(path) and not os.path.islink(path):
        os.remove(path)


def read_csv(path) -> Sequence:
    """Parse a dataset written by write_csv; errors carry the line number.

    The body is parsed in bulk. A body the bulk parse does not accept
    (blank lines, any error) is parsed again line by line, which names the
    line of the first error.
    """
    lines = read_text(path, DatasetFormatError).split("\n")
    if not lines[-1]:
        lines.pop()         # the break that ends the last line
    if not lines:
        raise DatasetFormatError("empty file", line=1)
    m, r = _parse_header(lines[0].split(","))
    body = lines[1:]
    data = _parse_bulk(body, m, r)
    if data is None:
        data = _parse_lines(body, m, r)
    return Sequence(s=data[:, :m].copy(), d=data[:, m:].copy())


def _parse_bulk(body, m, r):
    """The rows of a body of at least 2 rows without blank lines or errors,
    as an array; else None."""
    if len(body) < 2 or set(map(str.count, body, repeat(","))) != {m + r}:
        return None
    data = np.empty((len(body), m + r))
    for lo in range(0, len(body), _CHUNK_ROWS):
        chunk = body[lo:lo + _CHUNK_ROWS]
        fields = ",".join(chunk).split(",")
        if fields[::1 + m + r] != list(map(str, range(lo, lo + len(chunk)))):
            return None
        del fields[::1 + m + r]
        try:
            values = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:
            return None
        data[lo:lo + len(chunk)] = values.reshape(len(chunk), m + r)
    return data if np.isfinite(data).all() else None


def _parse_lines(body, m, r):
    """The rows of the body, one line at a time, as an array; raises
    DatasetFormatError naming the line of the first error."""
    rows = []
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 1 + m + r:
            raise DatasetFormatError(
                f"expected {1 + m + r} columns, got {len(fields)}", line=lineno)
        k = len(rows)     # blank lines are skipped, so not lineno - 2
        if fields[0] != str(k):
            raise DatasetFormatError(
                f"expected k={k}, got {fields[0]!r}", line=lineno)
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise DatasetFormatError("non-finite value", line=lineno)
        rows.append(row)
    if len(rows) < 2:
        raise DatasetFormatError(
            f"need at least 2 rows (N >= 1), got {len(rows)}", line=len(rows) + 1)
    return np.array(rows)
