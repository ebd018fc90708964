import contextlib
import io
import math
import os
import re
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignflow import cli
from alignflow.alignment import (
    Alignment,
    GridError,
    GridSizeError,
    InfeasibleAlignmentError,
    LogProbGrid,
    alignment_score,
    brute_force_align,
    load_grid,
    log_prob_grid,
    mas_search,
    noise_scale_at,
    read_csv_matrix,
)
from alignflow.harness import TrainConfig, build_model, save_model
from alignflow.numerics import NumericError, Rng


def gaussian_logpdf_scalar(x, mu, sigma):
    """Independent per-element density oracle."""
    return -math.log(sigma) - 0.5 * math.log(2 * math.pi) - (x - mu) ** 2 / (2 * sigma**2)


def mas_reference(grid, noise_scale=0.0, rng=None):
    """Per-cell double loop over the DP, one Python scalar at a time.

    The column-wise mas_search must match it bit for bit: same noise draw,
    same ``(max(diag, stay) + P) + eps`` per cell, same tie-break.
    """
    P = grid.P
    vi, vj = P.shape
    if vi > vj:
        raise InfeasibleAlignmentError(f"{vi} tokens onto {vj} frames")
    if noise_scale > 0.0:
        eps = rng.normal((vi, vj)) * P.std() * noise_scale
    else:
        eps = np.zeros((vi, vj))
    Q = np.full((vi, vj), -np.inf)
    Q[0, 0] = P[0, 0] + eps[0, 0]
    for j in range(1, vj):
        for i in range(min(j, vi - 1) + 1):
            stay = Q[i, j - 1]
            diag = Q[i - 1, j - 1] if i > 0 else -np.inf
            Q[i, j] = max(diag, stay) + P[i, j] + eps[i, j]
    durations = np.zeros(vi, dtype=np.int64)
    i = vi - 1
    for j in range(vj - 1, -1, -1):
        durations[i] += 1
        if j > 0 and i > 0 and Q[i - 1, j - 1] >= Q[i, j - 1]:
            i -= 1
    return Alignment(durations), float(Q[vi - 1, vj - 1])


def assert_same_search(grid, noise_scale=0.0, seed=0):
    """mas_search and mas_reference agree bit for bit, noise drawn from equal Rngs."""
    a_new, q_new = mas_search(grid, noise_scale, Rng(seed))
    a_ref, q_ref = mas_reference(grid, noise_scale, Rng(seed))
    npt.assert_array_equal(a_new.durations, a_ref.durations)
    assert np.float64(q_new).tobytes() == np.float64(q_ref).tobytes(), (q_new, q_ref)


def log_prob_grid_three_temporaries(z, mu, sigma):
    """``log_prob_grid``'s P as written with three (I, J, C) temporaries
    (diff, its square, the quotient); the one-buffer form must match it
    byte for byte."""
    diff = z[None, :, :] - mu[:, None, :]
    quad = diff * diff / (2.0 * sigma[:, None, :] ** 2)
    const = (-np.log(sigma) - 0.5 * math.log(2.0 * math.pi)).sum(axis=1)
    return const[:, None] - quad.sum(axis=2)


def random_grid(rng, i, j, c):
    z = rng.normal((j, c))
    mu = rng.normal((i, c))
    sigma = np.exp(rng.normal((i, c)) * 0.3)
    return log_prob_grid(z, mu, sigma)


class TestLogProbGrid:
    def test_zero_deviation(self):
        grid = log_prob_grid(np.array([[1.5]]), np.array([[1.5]]), np.array([[1.0]]))
        npt.assert_allclose(grid.P, [[-0.5 * math.log(2 * math.pi)]])

    def test_unit_deviation(self):
        grid = log_prob_grid(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
        npt.assert_allclose(grid.P, [[-0.5 * math.log(2 * math.pi) - 0.5]])

    def test_matches_scalar_oracle(self):
        rng = Rng(1)
        z = rng.normal((4, 2))
        mu = rng.normal((3, 2))
        sigma = np.exp(rng.normal((3, 2)) * 0.5)
        grid = log_prob_grid(z, mu, sigma)
        for i in range(3):
            for j in range(4):
                want = sum(
                    gaussian_logpdf_scalar(z[j, c], mu[i, c], sigma[i, c])
                    for c in range(2)
                )
                npt.assert_allclose(grid.P[i, j], want, rtol=1e-12)

    def test_bytes_match_the_three_temporary_form(self):
        rng = Rng(3)
        for i, j, c in ((1, 1, 1), (3, 4, 2), (40, 200, 2), (7, 31, 5), (80, 640, 2)):
            z = rng.normal((j, c)) * 3.0
            mu = rng.normal((i, c))
            sigma = np.exp(rng.normal((i, c)) * 0.5)
            want = log_prob_grid_three_temporaries(z, mu, sigma)
            assert log_prob_grid(z, mu, sigma).P.tobytes() == want.tobytes()

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            log_prob_grid(np.zeros((2, 1)), np.zeros((2, 1)), np.array([[1.0], [0.0]]))

    def test_invalid_entries_in_valid_region_rejected(self):
        bad = np.zeros((2, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LogProbGrid(bad)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_entries_rejected(self, value):
        bad = np.zeros((3, 4))
        bad[2, 0] = value
        with pytest.raises(ValueError, match="^grid has non-finite entries$"):
            LogProbGrid(bad)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (), (4,), (2, 2, 2)])
    def test_empty_or_non_2d_grid_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"2-D and non-empty, got shape {shape}")):
            LogProbGrid(np.zeros(shape))

    def test_shape_is_the_whole_grid(self):
        # mas_search scores every cell: I * J of them
        grid = LogProbGrid(np.zeros((3, 7)))
        assert (grid.valid_i, grid.valid_j) == (3, 7)
        with pytest.raises(TypeError):
            LogProbGrid(np.zeros((3, 7)), valid_i=2, valid_j=5)


class TestAlignmentType:
    def test_durations_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            Alignment(np.array([2, 0, 1]))

    def test_frame_tokens(self):
        a = Alignment(np.array([2, 1, 3]))
        npt.assert_array_equal(a.frame_tokens(), [0, 0, 1, 2, 2, 2])


class TestMasSearch:
    def test_single_token_absorbs_all_frames(self):
        rng = Rng(3)
        for j in (1, 4, 9):
            grid = random_grid(rng, 1, j, 2)
            align, _ = mas_search(grid)
            npt.assert_array_equal(align.durations, [j])

    def test_forced_diagonal(self):
        n = 5
        P = np.full((n, n), -10.0)
        np.fill_diagonal(P, 0.0)
        grid = LogProbGrid(P)
        align, _ = mas_search(grid)
        npt.assert_array_equal(align.durations, np.ones(n))

    def test_matches_explicit_enumeration_3x5(self):
        rng = Rng(4)
        grid = random_grid(rng, 3, 5, 1)
        # all C(4,2)=6 compositions of 5 frames into 3 positive runs
        candidates = [(1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]
        scores = [alignment_score(grid, Alignment(np.array(c))) for c in candidates]
        best = candidates[int(np.argmax(scores))]
        align, _ = mas_search(grid)
        npt.assert_array_equal(align.durations, best)
        assert alignment_score(grid, align) == max(scores)

    def test_tie_break_prefers_advancing_token(self):
        grid = LogProbGrid(np.zeros((2, 3)))
        align, _ = mas_search(grid)
        # all alignments tie at 0; advancing on ties keeps the tail short
        npt.assert_array_equal(align.durations, [2, 1])

    def test_infeasible_raises(self):
        grid = LogProbGrid(np.zeros((4, 3)))
        with pytest.raises(InfeasibleAlignmentError):
            mas_search(grid)
        with pytest.raises(InfeasibleAlignmentError):
            brute_force_align(grid)

    @pytest.mark.parametrize("P", [np.ones((2, 3)), np.array([[0.5, -1.0, 2.0]])])
    @pytest.mark.parametrize("scale", [np.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_noise_scale_must_be_finite_and_non_negative(self, P, scale):
        # an infinite scale used to reach the search and end in a NaN or infinite best_Q
        with pytest.raises(ValueError, match=rf"^noise_scale must be finite and >= 0, "
                                             rf"got {re.escape(repr(scale))}$"):
            mas_search(LogProbGrid(P), noise_scale=scale, rng=Rng(3))

    def test_noise_requires_rng(self):
        grid = LogProbGrid(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="rng"):
            mas_search(grid, noise_scale=0.5)

    def test_oracle_equivalence_200_instances(self):
        rng = Rng(5)
        for _ in range(200):
            i = rng.integers(1, 7)
            j = rng.integers(i, 11)
            c = rng.integers(1, 4)
            grid = random_grid(rng, i, j, c)
            a_dp, _ = mas_search(grid)
            a_bf, _ = brute_force_align(grid)
            s_dp = alignment_score(grid, a_dp)
            s_bf = alignment_score(grid, a_bf)
            assert s_dp == s_bf or abs(s_dp - s_bf) <= 1e-10

    def test_alignment_valid_for_any_noise_scale(self):
        rng = Rng(6)
        noise_rng = Rng(7)
        for scale in (0.0, 0.01, 0.5, 3.0, 50.0):
            for _ in range(20):
                i = rng.integers(1, 6)
                j = rng.integers(i, 12)
                grid = random_grid(rng, i, j, 2)
                align, _ = mas_search(grid, scale, noise_rng)
                assert align.durations.sum() == grid.valid_j
                assert (align.durations >= 1).all()

    def test_zero_noise_is_seed_independent(self):
        rng = Rng(8)
        grid = random_grid(rng, 4, 9, 2)
        a1, q1 = mas_search(grid, 0.0, Rng(1))
        a2, q2 = mas_search(grid, 0.0, Rng(999))
        npt.assert_array_equal(a1.durations, a2.durations)
        assert q1 == q2

    def test_noise_actually_perturbs(self):
        # with a large scale, different seeds should explore different optima
        rng = Rng(9)
        grid = random_grid(rng, 4, 9, 2)
        seen = {tuple(mas_search(grid, 5.0, Rng(s))[0].durations) for s in range(20)}
        assert len(seen) > 1

    def test_dp_value_matches_rescored_alignment(self):
        rng = Rng(10)
        for _ in range(30):
            grid = random_grid(rng, rng.integers(1, 6), rng.integers(6, 11), 2)
            align, q = mas_search(grid)
            assert abs(q - alignment_score(grid, align)) <= 1e-9

    OVERFLOWING = np.array([[1e308, -1e308, 1e308], [-1e308, 1e308, -1e308]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("P, scale, best_q", [
        (OVERFLOWING, 0.0, "inf"),  # the score sum overflows
        (np.full((1, 2), -1e308), 0.0, "-inf"),
        (OVERFLOWING, 0.5, "nan"),  # P.std() overflows, so eps is +-inf
    ])
    def test_non_finite_best_q_raises(self, P, scale, best_q):
        with pytest.raises(NumericError, match=f"overflowed: best_Q = {best_q}$"):
            mas_search(LogProbGrid(P), scale, Rng(3))

    def test_largest_finite_scores_still_align(self):
        P = np.array([[1e307, -1e307, 1e307], [-1e307, 1e307, -1e307]])
        align, q = mas_search(LogProbGrid(P))
        npt.assert_array_equal(align.durations, [1, 2])
        assert q == 1e307


class TestColumnwiseMatchesReference:
    SCALES = (0.0, 0.01, 1.0)

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 2), (1, 57),            # one token takes every frame
        (2, 2), (9, 9), (40, 40),           # I = J: the forced diagonal
        (30, 31), (60, 64),                 # tall-thin: nearly one frame per token
        (2, 150), (5, 240),                 # wide: long runs per token
    ])
    def test_edge_shapes(self, shape):
        i, j = shape
        grid = LogProbGrid(Rng(i * 1000 + j).normal((i, j)) * 5.0)
        for seed, scale in enumerate(self.SCALES):
            assert_same_search(grid, scale, seed)

    def test_random_shapes(self):
        rng = Rng(21)
        for k in range(150):
            i = rng.integers(1, 41)
            j = rng.integers(i, i + 120)
            grid = random_grid(rng, i, j, rng.integers(1, 4))
            assert_same_search(grid, self.SCALES[k % 3], seed=k)

    def test_many_ties(self):
        rng = Rng(22)
        for k in range(60):
            i = rng.integers(1, 12)
            j = rng.integers(i, i + 30)
            P = np.round(rng.normal((i, j)))  # few distinct values, many equal sums
            assert_same_search(LogProbGrid(P), self.SCALES[k % 3], k)

    def test_signed_zeros(self):
        # constant grid: std(P) = 0, so the noise is a mix of +0.0 and -0.0 and
        # the sign of best_Q depends on which operand each max keeps on a tie
        # (1, 1): best_Q is P[0, 0] itself, so only the final + 0.0 makes it +0.0
        for shape in ((1, 1), (1, 4), (2, 3), (3, 5), (4, 11), (6, 20)):
            for fill in (0.0, -0.0):
                grid = LogProbGrid(np.full(shape, fill))
                assert_same_search(grid)
                for seed in range(50):
                    assert_same_search(grid, 1.0, seed)


@st.composite
def small_grids(draw):
    i = draw(st.integers(1, 6))
    j = draw(st.integers(i, 10))
    # small integers make tied optima common; bounded floats cover the rest
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    cells = draw(st.lists(value, min_size=i * j, max_size=i * j))
    return LogProbGrid(np.array(cells).reshape(i, j))


@settings(max_examples=300, deadline=None)
@given(small_grids())
def test_mas_matches_brute_force_property(grid):
    align, best_q = mas_search(grid)
    _, bf_score = brute_force_align(grid)
    assert align.durations.sum() == grid.valid_j
    assert (align.durations >= 1).all()
    assert alignment_score(grid, align) == bf_score
    assert best_q == bf_score


class TestBruteForce:
    def test_single_composition_cases(self):
        g13 = LogProbGrid(Rng(11).normal((1, 3)))
        a, _ = brute_force_align(g13)
        npt.assert_array_equal(a.durations, [3])
        g22 = LogProbGrid(Rng(12).normal((2, 2)))
        a, _ = brute_force_align(g22)
        npt.assert_array_equal(a.durations, [1, 1])

    def test_two_candidate_case(self):
        grid = LogProbGrid(Rng(13).normal((2, 3)))
        s12 = alignment_score(grid, Alignment(np.array([1, 2])))
        s21 = alignment_score(grid, Alignment(np.array([2, 1])))
        a, score = brute_force_align(grid)
        assert score == max(s12, s21)
        expected = [1, 2] if s12 >= s21 else [2, 1]
        npt.assert_array_equal(a.durations, expected)

    def test_size_guard(self):
        with pytest.raises(GridSizeError):
            brute_force_align(LogProbGrid(np.zeros((7, 9))))
        with pytest.raises(GridSizeError):
            brute_force_align(LogProbGrid(np.zeros((3, 11))))


class TestNoiseSchedule:
    def test_exact_values(self):
        assert noise_scale_at(0) == 0.01
        assert noise_scale_at(1000) == 0.008
        assert noise_scale_at(5000) == 0.0
        assert noise_scale_at(10**6) == 0.0
        for s in (0, 1, 999, 1000, 4999, 5000, 10**6):
            assert noise_scale_at(s) == max(0.0, 0.01 - 2e-6 * s)

    def test_monotone_and_reaches_zero(self):
        values = [noise_scale_at(s) for s in range(0, 6001, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        assert noise_scale_at(4999) > 0.0


class TestLoadGrid:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 6), (7, 20)])
    def test_reads_savetxt_output_like_loadtxt(self, tmp_path, shape):
        path = tmp_path / "grid.csv"
        np.savetxt(path, Rng(sum(shape)).normal(shape) * 10.0 ** Rng(1).integers(-5, 5),
                   delimiter=",")
        want = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))
        assert load_grid(path).P.tobytes() == want.tobytes()

    def test_comments_blank_lines_and_one_column(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# header\n0.5, -1\n\n2e-3,4 # tail\n")
        npt.assert_array_equal(load_grid(path).P, [[0.5, -1.0], [2e-3, 4.0]])
        path.write_text("1\n2\n")
        assert load_grid(path).P.shape == (2, 1)

    @pytest.mark.parametrize("text, message", [
        ("", ": grid has no rows"),
        ("# only a comment\n\n", ": grid has no rows"),
        ("1,2,3\n4,5\n", ":2: grid row 1 has 2 cells, row 0 has 3"),
        ("1,2\n\n3,x\n", ":3: grid row 1, column 1: 'x' is not a number"),
        ("1,nan,3\n", ":1: grid row 0, column 1: 'nan' is not finite"),
        ("1,2\n3,-inf\n", ":2: grid row 1, column 1: '-inf' is not finite"),
    ])
    def test_bad_grid_names_file_and_row(self, tmp_path, text, message):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(GridError) as err:
            load_grid(path)
        assert str(err.value) == str(path) + message


def csv_text(matrix) -> str:
    """A matrix in the CSV form the loaders read, each cell its shortest repr."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)


@st.composite
def csv_matrices(draw):
    """1-6 rows of 1-8 finite float64 cells, extremes and subnormals included."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=rows * cols, max_size=rows * cols))
    return np.array(cells).reshape(rows, cols)


# bytes that are never valid UTF-8 after an ASCII byte: continuation bytes,
# overlong lead bytes and lead bytes past U+10FFFF
_NOT_UTF8 = [*range(0x80, 0xC2), *range(0xF5, 0x100)]


@st.composite
def corrupted_csv(draw):
    """A saved valid matrix made invalid one way: cut right after a comma (or
    to nothing), a cell that is not a number or not finite, a row of another
    width, or a byte that is not UTF-8."""
    matrix = draw(csv_matrices())
    text = csv_text(matrix)
    kind = draw(st.sampled_from(["truncated", "not a number", "not finite", "ragged",
                                 "not UTF-8"]))
    if kind == "truncated":
        commas = [k for k, ch in enumerate(text) if ch == ","]
        return text[:draw(st.sampled_from(commas)) + 1 if commas else 0].encode()
    lines = text.splitlines()
    if kind == "ragged":
        i = draw(st.integers(0, len(lines)))
        return "\n".join(lines[:i] + [",".join(["0.5"] * (matrix.shape[1] + 1))]
                         + lines[i:]).encode()
    if kind == "not UTF-8":
        data = text.encode()
        k = draw(st.integers(0, len(data)))
        return data[:k] + bytes([draw(st.sampled_from(_NOT_UTF8))]) + data[k:]
    if kind == "not a number":
        bad = draw(st.text(alphabet="xyz?!$%", min_size=1, max_size=8))
    else:
        bad = draw(st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"]))
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, matrix.shape[1] - 1))
    cells = lines[i].split(",")
    cells[j] = bad
    return "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:]).encode()


@pytest.fixture(scope="module")
def frames_ckpt(tmp_path_factory):
    cfg = TrainConfig(hidden_width=16, ff_width=24, dur_hidden=8, flow_hidden=8)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_model(path, build_model(cfg, Rng(cfg.seed).child(3)))
    return path


class TestCsvMatrixFuzz:
    """``mas --grid`` and ``dump-attention --input`` read their CSV with
    ``read_csv_matrix``, raising ``GridError`` and ``FramesError``."""

    LOADERS = [("mas", "--grid", GridError, "grid"),
               ("dump-attention", "--input", cli.FramesError, "input")]

    @settings(max_examples=50, deadline=None)
    @given(csv_matrices())
    def test_roundtrip(self, matrix):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.csv")
            with open(path, "w") as fh:
                fh.write(csv_text(matrix))
            assert load_grid(path).P.tobytes() == matrix.tobytes()
            got = read_csv_matrix(path, cli.FramesError, "input")
            assert got.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("command, flag, error, what", LOADERS, ids=["grid", "frames"])
    @settings(max_examples=50, deadline=None)
    @given(data=corrupted_csv())
    def test_corrupted_file_is_one_error_naming_the_file(self, frames_ckpt, command, flag,
                                                         error, what, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(error) as info:
                read_csv_matrix(path, error, what)
            assert str(info.value).startswith(f"{path}:")
            out, err = os.path.join(tmp, "out"), io.StringIO()
            rest = [] if command == "mas" else ["--ckpt", str(frames_ckpt), "--out", out]
            with contextlib.redirect_stderr(err):
                code = cli.main([command, flag, path, *rest])
            assert code == 2
            assert err.getvalue() == f"alignflow {command}: {info.value}\n"
            assert not os.path.exists(out)

    @settings(max_examples=50, deadline=None)
    @given(csv_matrices(), st.data())
    def test_any_byte_edit_loads_or_raises_grid_error(self, matrix, data):
        text = csv_text(matrix).encode()
        k = data.draw(st.integers(0, len(text) - 1))
        edit = data.draw(st.sampled_from(["cut", "replace"]))
        mutated = text[:k] if edit == "cut" else text[:k] + bytes([data.draw(
            st.integers(0, 255))]) + text[k + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.csv")
            with open(path, "wb") as fh:
                fh.write(mutated)
            try:
                grid = load_grid(path)
            except GridError as e:
                assert str(e).startswith(f"{path}:")
            else:
                assert np.isfinite(grid.P).all()
