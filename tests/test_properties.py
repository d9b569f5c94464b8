"""Property-based checks of the identities between the engine and the oracles,
of the empirical semivariogram's bin rule, of the number validators and of
the CSV point reader.

Points are drawn on distinct cells of a unit lattice with an offset below
one half, so no two lie closer than 0.5.  Draws whose observation
covariance or trend design is ill-conditioned are skipped with ``assume``;
the data are never shrunk to hide them.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

from gpkrige import (
    Dataset,
    KernelSpec,
    MeanSpec,
    build_gram,
    empirical_semivariogram,
    gpr_predict,
    gpr_predict_basis,
    predict_points,
)
from gpkrige.cli import read_point_table
from gpkrige.exceptions import InputError
from gpkrige.kernels import _finite, _integer, _nonnegative, basis_matrix
from gpkrige.oracle import (
    _bordered_route,
    _plugin_route,
    _route_blocks,
    bordered_solve,
)
from helpers import FAMILIES, random_spd

TOL = 1e-8
SIDE = 12
MAX_COND = 1e8
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw, min_n=2, noises=(0.0, 0.1)):
    """A well-separated dataset with one of ``noises``, its kernel and targets."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(min_n, 10))
    cells = draw(st.permutations(range(SIDE ** dim)))[:n]
    offsets = draw(arrays(float, (n, dim), elements=st.floats(0.0, 0.49)))
    x = np.column_stack(np.unravel_index(cells, (SIDE,) * dim)) + offsets
    y = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    kernel = KernelSpec(draw(st.sampled_from(FAMILIES)), draw(st.floats(0.5, 2.0)),
                        (draw(st.floats(0.3, 2.0)),), dim=dim)
    noise = draw(st.sampled_from(noises))
    m = draw(st.integers(1, 6))
    xs = draw(arrays(float, (m, dim), elements=st.floats(0.0, float(SIDE))))
    assume(np.linalg.cond(build_gram(kernel, x, noise)) < MAX_COND)
    return Dataset(x, y, noise), kernel, xs


def rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))


@PROPERTY_SETTINGS
@given(instances())
def test_ok_equals_sk_plus_gls(instance):
    data, kernel, xs = instance
    constant = MeanSpec.constant_unknown()
    ok = predict_points(data, kernel, xs, "ok")
    oracle = _plugin_route(data, kernel, constant, xs, _route_blocks(data, kernel, xs, constant))
    assert rel(np.array([p.mean for p in ok]), oracle.mean) <= TOL
    assert rel(np.array([p.error_variance for p in ok]), oracle.variance) <= TOL


@PROPERTY_SETTINGS
@given(instances(min_n=4))
def test_gpr_basis_equals_uk(instance):
    data, kernel, xs = instance
    basis = MeanSpec.polynomial(data.dim, 1)
    design = np.hstack([np.ones((data.n, 1)), data.x])
    assume(np.linalg.cond(design) < MAX_COND)
    post = gpr_predict_basis(data, kernel, basis, xs)
    oracle = _plugin_route(data, kernel, basis, xs, _route_blocks(data, kernel, xs, basis))
    assert rel(post.mean, oracle.mean) <= TOL
    assert rel(post.variance, oracle.variance) <= TOL


@PROPERTY_SETTINGS
@given(instances(min_n=4))
def test_gpr_basis_equals_bordered_solve(instance):
    # GPR with a basis, and with a known mean: that borders S by no columns
    # and enters as the offset m(X)
    data, kernel, xs = instance
    basis = MeanSpec.polynomial(data.dim, 1)
    assume(np.linalg.cond(basis_matrix(basis, data.x)) < MAX_COND)
    known = MeanSpec.polynomial(data.dim, 1, coefficients=np.linspace(2.0, -1.0, data.dim + 1))
    blocks = _route_blocks(data, kernel, xs, basis)
    for post, spec in [(gpr_predict_basis(data, kernel, basis, xs), basis),
                       (gpr_predict(data, kernel, known, xs), known)]:
        route = _bordered_route(data, kernel, spec, xs, blocks)
        assert rel(post.mean, route.mean) <= TOL
        assert rel(post.variance, route.variance) <= TOL


@st.composite
def bordered_systems(draw):
    """A bordered system with 2..40 rows of Sigma and 0..4 full-rank columns of M.

    Sigma is either SPD, shrunk by 10^-k (k in 0..6) against M's O(1)
    entries, so that about half the draws pivot in 2x2 blocks, or the
    indefinite A + A^T with A standard normal, as the bordered systems of
    generalized covariances are; three right-hand sides.
    """
    n = draw(st.integers(2, 40))
    p = draw(st.integers(0, min(4, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        a = rng.normal(size=(n, n))
        sigma = a + a.T
    else:
        sigma = random_spd(rng, n) * 10.0 ** -draw(st.integers(0, 6))
    m = rng.normal(size=(n, p))
    full = np.block([[sigma, m], [m.T, np.zeros((p, p))]])
    assume(np.linalg.matrix_rank(m) == p and np.linalg.cond(full) < MAX_COND)
    return sigma, m, full, rng.normal(size=(n + p, 3))


@PROPERTY_SETTINGS
@given(bordered_systems())
def test_bordered_solve_matches_dense_solve(system):
    sigma, m, full, rhs = system
    n = sigma.shape[0]
    lam, mu = bordered_solve(sigma, m, rhs[:n], rhs[n:])
    dense = np.linalg.solve(full, rhs)
    assert np.linalg.norm(np.vstack([lam, mu]) - dense) <= TOL * np.linalg.norm(dense)
    for j in range(rhs.shape[1]):  # each column rounds as it would alone
        lam_j, mu_j = bordered_solve(sigma, m, rhs[:n, j], rhs[n:, j])
        assert np.array_equal(lam[:, j], lam_j) and np.array_equal(mu[:, j], mu_j)


@PROPERTY_SETTINGS
@given(instances())
def test_uk_with_constant_basis_equals_ok(instance):
    data, kernel, xs = instance
    uk = predict_points(data, kernel, xs, "uk", MeanSpec.basis([lambda x: 1.0]))
    ok = predict_points(data, kernel, xs, "ok")
    assert rel(np.array([p.mean for p in uk]), np.array([p.mean for p in ok])) <= TOL
    assert rel(np.array([p.error_variance for p in uk]),
               np.array([p.error_variance for p in ok])) <= TOL


@PROPERTY_SETTINGS
@given(instances(noises=(0.0,)))
def test_noise_free_ok_interpolates(instance):
    data, kernel, _ = instance
    ok = predict_points(data, kernel, data.x, "ok")
    assert rel(data.y, np.array([p.mean for p in ok])) <= TOL
    assert max(p.error_variance for p in ok) <= TOL


@st.composite
def binned_lags(draw):
    """bins, max_lag and a lag on an edge, next to one, or at max_lag itself."""
    bins = draw(st.integers(1, 64))
    max_lag = draw(st.floats(1e-100, 1e100))
    edges = np.linspace(0.0, max_lag, bins + 1)  # edges[-1] is max_lag
    near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    lag = float(draw(st.sampled_from(near[near >= 0.0])))
    # the pair [0], [lag] must have exactly this lag: not so below about
    # 1e-154, where lag^2 leaves the normal range
    assume(cdist([[0.0]], [[lag]])[0, 0] == lag)
    return bins, max_lag, edges, lag


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(binned_lags())
def test_variogram_bin_is_digitize(case):
    bins, max_lag, edges, lag = case
    _, counts, _ = empirical_semivariogram([[0.0], [lag]], [0.0, 1.0], bins, max_lag)
    expected = np.zeros(bins, dtype=int)
    if lag <= max_lag:
        expected[np.digitize(lag, edges[1:-1])] = 1
    assert counts.tolist() == expected.tolist()


@st.composite
def variogram_samples(draw):
    """Points, responses, bins and max_lag; on a lattice, lags fall on edges and on max_lag.

    n up to 600 makes several row blocks of many rows each; a power-of-two
    scale moves every lag and edge by the same exact factor.
    """
    n, dim, bins = draw(st.integers(2, 600)), draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-40, 40))
    if draw(st.booleans()):
        x = rng.integers(0, 10, (n, dim)).astype(float)
        max_lag = float(draw(st.sampled_from([bins, draw(st.integers(1, 12))])))
    else:
        x = rng.uniform(0.0, 10.0, (n, dim))
        max_lag = draw(st.floats(0.5, 15.0))
    return x * scale, rng.normal(size=n), bins, max_lag * scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(variogram_samples())
def test_variogram_rounds_as_one_pass(case):
    assert_one_pass(*case)


def assert_one_pass(x, y, bins, max_lag):
    # counts are np.digitize's, and each bin's sum is one sequential
    # bincount over the kept pairs in pdist order, to the last bit
    lags = pdist(x)
    rows, cols = np.triu_indices(len(y), 1)
    with np.errstate(over="ignore"):  # pairs beyond max_lag may overflow
        sq = (y[rows] - y[cols]) ** 2
    keep = lags <= max_lag
    idx = np.digitize(lags[keep], np.linspace(0.0, max_lag, bins + 1)[1:-1])
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=sq[keep], minlength=bins)
    expected = np.full(bins, np.nan)
    expected[counts > 0] = sums[counts > 0] / (2.0 * counts[counts > 0])
    _, got_counts, got_gamma = empirical_semivariogram(x, y, bins, max_lag)
    assert got_counts.tolist() == counts.tolist()
    assert np.array_equal(got_gamma, expected, equal_nan=True)


def _far_pair(n, first=False):
    # two points far from the unit square and from each other, with
    # responses whose difference overflows; every pair they make lies
    # beyond max_lag 2, so the tail is binned whole and their overflows
    # land in the sentinel.  ``first`` puts them in rows 0 and 1, so the
    # overflowing pair is in the first cdist block, which keeps none of its
    # pairs and is gathered
    rng = np.random.default_rng(n)
    x = np.vstack([rng.uniform(0.0, 1.0, (n - 2, 2)), [[-100.0, -100.0], [100.0, 100.0]]])
    y = np.concatenate([rng.normal(size=n - 2), [-1e308, 1e308]])
    if first:
        x, y = np.roll(x, 2, axis=0), np.roll(y, 2)
    return x, y, 12, 2.0


def _unit_square(n, max_lag, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n, 2)), rng.normal(size=n), 12, max_lag


@pytest.mark.parametrize("case", [
    _unit_square(362, 1.0),  # the tail alone holds every pair
    _unit_square(363, 1.0),  # one row, then a tail of 362 rows
    _unit_square(363, 0.1),  # a gathered tail: about 3% of its pairs kept
    _far_pair(300),  # an overflowing difference in the tail, binned in its sentinel
    _far_pair(363, first=True),  # an overflowing difference in a cdist block, then the tail
], ids=["tail-only", "block-and-tail", "gathered-tail", "overflow-in-tail", "overflow-in-block"])
def test_variogram_tail_rounds_as_one_pass(case):
    assert_one_pass(*case)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
#: finite Python and numpy numbers, with Python ints beyond 64 bits
NUMBERS = st.one_of(
    st.integers(-2**70, 2**70), FINITE_FLOATS,
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False, allow_infinity=False)),
    st.builds(np.float64, FINITE_FLOATS),
)
VALIDATOR_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
NOT_NUMBERS = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                        st.sampled_from([np.True_, np.False_]))
#: rows of numbers whose lengths differ
RAGGED = st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=2, max_size=4).filter(
    lambda rows: len({len(row) for row in rows}) > 1)


def _with_numbers(kids):
    """Lists holding one of ``kids`` among numbers, at any position."""
    return st.tuples(kids, st.lists(NUMBERS, max_size=3)).flatmap(
        lambda pair: st.permutations([pair[0], *pair[1]]))


@VALIDATOR_SETTINGS
@given(st.one_of(RAGGED, st.recursive(NOT_NUMBERS, _with_numbers, max_leaves=6)))
def test_validators_reject_non_numbers(value):
    for check in (_finite, _nonnegative, _integer):
        with pytest.raises(InputError):
            check(value, "value")


@VALIDATOR_SETTINGS
@given(NUMBERS)
def test_validators_return_numbers(v):
    finite = _finite(v, "v")
    assert finite.dtype == float and finite.shape == () and finite == float(v)
    if v >= 0:
        nonnegative = _nonnegative(v, "v")
        assert type(nonnegative) is float and nonnegative == float(v)
    else:
        with pytest.raises(InputError):
            _nonnegative(v, "v")
    if int(v) == v:
        integer = _integer(v, "v")
        assert type(integer) is int and integer == int(v)
    else:
        with pytest.raises(InputError):
            _integer(v, "v")


#: padding that str.strip and float() both read as whitespace, none of it a line end
PADS = st.text(alphabet=" \t\x0b\x0c\x85\xa0\u2003", max_size=2)
FIELDS = st.one_of(FINITE_FLOATS.map(repr), FINITE_FLOATS.map("{:.3e}".format),
                   st.integers(-10**20, 10**20).map(str))
#: a field that fails a row: unparsable, digit-grouped, non-finite or empty
BAD_FIELDS = st.sampled_from(["oops", "1_0", "0x1p3", "nan", "inf", "-inf", ""])


@st.composite
def point_tables(draw):
    """CSV text of a point table and the reader's ``expect_response``.

    Fields are padded, blank and whitespace-only lines fall anywhere, lines
    end in LF, CRLF or CR and the last may end in none; a points table
    (``expect_response`` False) may carry a trailing y column.  Some tables
    hold bad rows: a bad field, or one field too many or too few.
    """
    dim, expect_response = draw(st.integers(1, 3)), draw(st.booleans())
    names = [f"x{i + 1}" for i in range(dim)] + ["y"] * (expect_response or draw(st.booleans()))
    rows = draw(st.lists(st.lists(FIELDS, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=12))
    for row in draw(st.lists(st.sampled_from(rows), max_size=2)):
        kind = draw(st.sampled_from(["field", "longer", "shorter"]))
        if kind == "field":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_FIELDS)
        elif kind == "longer":
            row.append(draw(FIELDS))
        else:
            row.pop()
    lines = [",".join(draw(PADS) + f + draw(PADS) for f in fields) for fields in [names, *rows]]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADS))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), expect_response


def _per_line_reference(path, expect_response):
    """A table read one line at a time, or the error of its first bad row."""
    with open(path, encoding="utf-8") as fh:
        lines = [(k, line) for k, line in enumerate(fh, start=1) if not line.isspace()]
    header = [f.strip() for f in lines[0][1].split(",")]
    dim = len(header) - (len(header) > 1 and header[-1] == "y")
    rows = []
    for k, line in lines[1:]:
        fields = line.strip().split(",")
        if len(fields) != len(header):
            return f"{path}: line {k}: expected {len(header)} fields, got {len(fields)}"
        if "_" in line:
            return f"{path}: line {k}: digit-group underscores are not accepted"
        try:
            values = [float(f) for f in fields]
        except ValueError as err:
            return f"{path}: line {k}: {err}"
        if not all(map(math.isfinite, values)):
            return f"{path}: line {k}: non-finite value"
        rows.append(values)
    table = np.array(rows)
    return table[:, :dim], (table[:, dim] if expect_response else None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point_tables())
def test_reader_matches_per_line_reference(tmp_path, case):
    # the same arrays bit for bit, or the same error for the same line
    text, expect_response = case
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _per_line_reference(path, expect_response)
    try:
        got = read_point_table(str(path), expect_response)
    except InputError as err:
        assert str(err) == expected
        return
    assert not isinstance(expected, str)
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
