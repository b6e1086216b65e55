import csv

import numpy as np
import pytest

from brnn.errors import ConfigurationError, DatasetFormatError
from brnn.model import Sequence
from brnn.tasks import (_GAMMA, _MASK64, _MIX1, _MIX2, TaskSpec, _filter,
                        _parse_bulk, _parse_rows, gen_task, read_csv,
                        uniform_noise, write_csv)


def splitmix64(seed: int):
    """Infinite stream of 64-bit integers from the splitmix64 generator."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def test_splitmix64_reference_vector():
    # published first outputs for seed 0
    gen = splitmix64(0)
    assert next(gen) == 0xE220A8397B1DCDAF
    assert next(gen) == 0x6E789E6AA1B965F4
    assert next(gen) == 0x06C45D188009454F


def test_uniform_noise_range_and_determinism():
    a = uniform_noise(42, (100,), 0.7)
    b = uniform_noise(42, (100,), 0.7)
    assert (a == b).all()
    assert ((a >= -0.7) & (a < 0.7)).all()
    assert np.abs(a).max() > 0


@pytest.mark.parametrize("seed", [0, 5, -3, 2**63 + 12345, 2**64 - 1])
def test_uniform_noise_equals_the_splitmix64_generator(seed):
    gen = splitmix64(seed)
    n = 1000
    u = np.array([(next(gen) >> 11) * 2.0 ** -53 for _ in range(n)])
    with np.errstate(all="raise"):
        got = uniform_noise(seed, (n // 2, 2), 0.7)
    assert np.array_equal(got, (0.7 * (2.0 * u - 1.0)).reshape(n // 2, 2))


def test_sine_omega_zero_is_all_zero():
    seq = gen_task(TaskSpec(kind="sine_track", N=10, omega=0.0))
    assert (seq.s == 0).all()
    assert (seq.d == 0).all()


def test_sine_is_one_step_ahead():
    spec = TaskSpec(kind="sine_track", N=20, omega=0.3, phase=0.4)
    seq = gen_task(spec)
    k = np.arange(21)
    np.testing.assert_allclose(seq.s[:, 0], np.sin(0.3 * k + 0.4))
    np.testing.assert_allclose(seq.d[:, 0], np.sin(0.3 * (k + 1) + 0.4))


def test_sine_noise_only_on_inputs():
    clean = gen_task(TaskSpec(kind="sine_track", N=15, omega=0.3, seed=1))
    noisy = gen_task(TaskSpec(kind="sine_track", N=15, omega=0.3, seed=1, noise=0.1))
    assert (clean.d == noisy.d).all()
    assert np.abs(noisy.s - clean.s).max() <= 0.1
    assert np.abs(noisy.s - clean.s).max() > 0


def test_lag_copy_example():
    spec = TaskSpec(kind="lag_copy", N=6, lag=2, seed=3)
    seq = gen_task(spec)
    assert (seq.d[:2] == 0).all()
    np.testing.assert_array_equal(seq.d[2:, 0], seq.s[:5, 0])


def test_identity_filter():
    spec = TaskSpec(kind="bandpass_filter", N=30, coeffs=(0.0, 0.0, 1.0), seed=5)
    seq = gen_task(spec)
    np.testing.assert_array_equal(seq.d, seq.s)


def kept_filter(coeffs, s):
    """The bandpass loop on NumPy scalars, kept to pin tasks._filter's bits."""
    a1, a2, b0 = coeffs
    d = np.zeros_like(s)
    for k in range(s.shape[0]):
        d[k] = b0 * s[k]
        if k >= 1:
            d[k] += a1 * d[k - 1]
        if k >= 2:
            d[k] += a2 * d[k - 2]
    return d


def test_filter_equals_the_kept_numpy_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for case in range(200):
        # every fifth case spans magnitudes up to 1e+-300, so products
        # overflow to inf and underflow to 0, and inf - inf gives NaN
        spread = 300.0 if case % 5 == 0 else 1.0
        scale = lambda size: 10.0 ** rng.uniform(-spread, spread, size)
        coeffs = tuple(float(c) for c in rng.uniform(-2.0, 2.0, 3) * scale(3))
        s = rng.uniform(-1.0, 1.0, int(rng.integers(1, 501)))
        s *= scale(s.size)
        with np.errstate(over="ignore", invalid="ignore"):
            want = kept_filter(coeffs, s)
        got = _filter(coeffs, s)
        assert got.dtype == want.dtype and got.shape == want.shape
        # the same bits: NaN and signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_filter_stability_validated():
    with pytest.raises(ConfigurationError):
        TaskSpec(kind="bandpass_filter", N=10, coeffs=(2.0, 0.5, 1.0))
    TaskSpec(kind="bandpass_filter", N=10, coeffs=(1.2, -0.72, 1.0))


def test_lag_range_validated():
    with pytest.raises(ConfigurationError):
        TaskSpec(kind="lag_copy", N=5, lag=5)
    with pytest.raises(ConfigurationError):
        TaskSpec(kind="lag_copy", N=5, lag=-1)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        TaskSpec(kind="square_wave", N=5)


def test_generation_deterministic():
    for kind in ("sine_track", "bandpass_filter", "lag_copy"):
        a = gen_task(TaskSpec(kind=kind, N=25, noise=0.3, seed=11))
        b = gen_task(TaskSpec(kind=kind, N=25, noise=0.3, seed=11))
        assert (a.s == b.s).all() and (a.d == b.d).all()
        c = gen_task(TaskSpec(kind=kind, N=25, noise=0.3, seed=12))
        assert not (a.s == c.s).all()


def test_bandpass_targets_bounded():
    # unit-variance uniform noise has amplitude sqrt(3)
    spec = TaskSpec(kind="bandpass_filter", N=10_000, noise=np.sqrt(3.0), seed=0)
    seq = gen_task(spec)
    assert np.abs(seq.d).max() < 50.0


def test_csv_round_trip_exact(tmp_path):
    seq = gen_task(TaskSpec(kind="bandpass_filter", N=40, m=2, r=2, seed=9))
    path = tmp_path / "data.csv"
    write_csv(seq, path)
    back = read_csv(path)
    assert (back.s == seq.s).all()
    assert (back.d == seq.d).all()


def test_csv_header_gives_dims(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,s2,d1\n0,0.5,1.5,2.5\n1,0.1,0.2,0.3\n")
    seq = read_csv(path)
    assert seq.m == 2 and seq.r == 1 and seq.N == 1
    assert seq.s[0, 1] == 1.5 and seq.d[1, 0] == 0.3


def test_csv_rejects_single_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n")
    with pytest.raises(DatasetFormatError):
        read_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,x1,d1\n0,1.0,2.0\n1,1.0,2.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == 1


def test_csv_bad_column_count_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n1,1.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == 3


def test_csv_bad_float_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n1,oops,2.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("text, line", [
    ("k,s1,d1\n0,1.0,2.0\n1,nan,2.0\n2,1.0,2.0\n3,inf,2.0\n", 3),
    ("k,s1,d1\n0,1.0,2.0\n1,1.0,2.0\n2,1.0,-inf\n", 4),
])
def test_csv_non_finite_value_names_line(tmp_path, text, line):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == line
    assert "non-finite" in str(exc.value)


def test_csv_bad_k_index(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n7,1.0,2.0\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == 3


def test_multidim_round_trip(tmp_path):
    seq = Sequence(s=np.random.default_rng(1).uniform(-1, 1, (5, 3)),
                   d=np.random.default_rng(2).uniform(-1, 1, (5, 2)))
    path = tmp_path / "d.csv"
    write_csv(seq, path)
    back = read_csv(path)
    assert back.m == 3 and back.r == 2
    assert (back.s == seq.s).all() and (back.d == seq.d).all()


def test_csv_gap_in_k_after_blank_line_names_line(tmp_path):
    # the blank line is skipped, so the row after it must still be k = 1
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n\n2,1.5,2.5\n")
    with pytest.raises(DatasetFormatError) as exc:
        read_csv(path)
    assert exc.value.line == 4
    assert "expected k=1" in str(exc.value)


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("k,s1,d1\n0,1.0,2.0\n\n1,1.5,2.5\n\n")
    seq = read_csv(path)
    assert seq.N == 1
    assert (seq.s[:, 0] == [1.0, 1.5]).all() and (seq.d[:, 0] == [2.0, 2.5]).all()


def csv_writer_reference(seq, path):
    """The csv.writer loop write_csv must match byte for byte."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k"] + [f"s{j + 1}" for j in range(seq.m)]
                        + [f"d{j + 1}" for j in range(seq.r)])
        for k in range(seq.N + 1):
            writer.writerow([k] + [repr(float(v)) for v in seq.s[k]]
                            + [repr(float(v)) for v in seq.d[k]])


def test_write_csv_bytes_equal_the_csv_writer_reference(tmp_path):
    rng = np.random.default_rng(21)
    special = [-0.0, 0.0, 5e-324, -1e-300, 1e300, -1.7976931348623157e308,
               0.1, 1.0, 1.0 / 3.0, 123456789.0, 1e16, 1e22, -2.5e-7]
    s = rng.uniform(-1, 1, (len(special), 3))
    s[:, 1] = special
    d = rng.standard_normal((len(special), 2)) * 10.0 ** rng.integers(-20, 20, (len(special), 2))
    d[::-1, 0] = special
    seqs = [Sequence(s=s, d=d),
            gen_task(TaskSpec(kind="bandpass_filter", N=300, m=2, r=1, seed=4))]
    for i, seq in enumerate(seqs):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_csv(seq, got)
        csv_writer_reference(seq, want)
        assert got.read_bytes() == want.read_bytes()


def parse_outcome(parse, path):
    """(m, s, d) of a parse, or the message and line of its error."""
    try:
        m, data = parse(path)
    except DatasetFormatError as exc:
        return str(exc), exc.line
    return m, data[:, :m].tolist(), data[:, m:].tolist()


BULK_CASES = {
    "crlf": "k,s1,s2,d1\r\n0,0.5,-1e-300,2.5\r\n1,0.1,0.2,0.3\r\n",
    "lf, no final break": "k,s1,d1\n0,1.0,2.0\n1,3.0,4.0",
    "cr": "k,s1,d1\r0,1.0,2.0\r1,3.0,4.0\r",
    "quoted": 'k,s1,d1\r\n0,"1.5",2.0\r\n1,1.0,2.0\r\n',
    "quoted comma": 'k,s1,d1\r\n0,"1,5",2.0\r\n1,1.0,2.0\r\n',
    "underscore and spaces": "k,s1,d1\n0,1_0, 2.5 \n1,-0.0,1e22\n",
    "form feed": "k,s1,d1\n0,1.0\f,2.0\n1,1.0,2.0\n",
    "k written as float": "k,s1,d1\n0.0,1.0,2.0\n1,1.0,2.0\n",
    "k with space": "k,s1,d1\n0,1.0,2.0\n 1,1.0,2.0\n",
    # the k column lines up again after the short row: only the per-line
    # field count sees the shift
    "fields shifted between rows": "k,s1,d1\n0,1.0,2.0\n1,1.0\n2,2,1.0,2.0\n",
    "trailing blank lines": "k,s1,d1\n0,1.0,2.0\n1,1.0,2.0\n\n\n",
    "whitespace line": "k,s1,d1\n0,1.0,2.0\n \n1,1.0,2.0\n",
    "nan": "k,s1,d1\n0,1.0,2.0\n1,nan,2.0\n",
    "infinity spelled out": "k,s1,d1\n0,1.0,2.0\n1,1.0,-Infinity\n",
    "one row": "k,s1,d1\n0,1.0,2.0\n",
    "header only": "k,s1,d1\r\n",
    "bad header": "k,s1,e1\n0,1.0,2.0\n1,1.0,2.0\n",
    "empty": "",
    # longer than csv.field_size_limit() (131072): csv.reader refuses the
    # field, so both parses must report it
    "long field": "k,s1,d1\n0,1.0,2.0\n1,0." + "0" * 200_000 + "1,2.0\n",
}


@pytest.mark.parametrize("name", BULK_CASES)
def test_read_csv_equals_the_row_by_row_parse(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(BULK_CASES[name].encode())

    def read(p):
        seq = read_csv(p)
        return seq.m, np.hstack([seq.s, seq.d])

    assert parse_outcome(read, path) == parse_outcome(_parse_rows, path)


def test_write_csv_output_is_parsed_in_bulk(tmp_path):
    seq = gen_task(TaskSpec(kind="bandpass_filter", N=300, m=2, r=2, seed=4))
    path = tmp_path / "d.csv"
    write_csv(seq, path)
    with open(path, newline="") as f:
        m, data = _parse_bulk(f.read())
    assert m == 2
    assert np.array_equal(data, np.hstack([seq.s, seq.d]))


@pytest.mark.parametrize("fault", ["none", "bad k", "bad float", "nan", "short row"])
def test_read_csv_of_several_bulk_chunks_equals_the_row_by_row_parse(tmp_path, fault):
    # 5001 rows span three chunks of the bulk parse; each fault sits in the
    # last one, so the earlier chunks parse before the fallback
    seq = gen_task(TaskSpec(kind="bandpass_filter", N=5000, m=2, r=1, seed=9))
    path = tmp_path / "d.csv"
    write_csv(seq, path)
    lines = path.read_bytes().split(b"\r\n")
    row = lines[4500 + 1].split(b",")
    if fault == "bad k":
        row[0] = b"4499"
    elif fault == "bad float":
        row[2] = b"0.5x"
    elif fault == "nan":
        row[3] = b"nan"
    elif fault == "short row":
        del row[3]
    lines[4500 + 1] = b",".join(row)
    path.write_bytes(b"\r\n".join(lines))
    with open(path, newline="") as f:
        bulk = _parse_bulk(f.read())
    assert (bulk is None) == (fault != "none")
    if bulk is not None:
        assert np.array_equal(bulk[1], np.hstack([seq.s, seq.d]))

    def read(p):
        got = read_csv(p)
        return got.m, np.hstack([got.s, got.d])

    assert parse_outcome(read, path) == parse_outcome(_parse_rows, path)
