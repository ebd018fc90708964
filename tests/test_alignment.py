import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from alignflow.numerics import Rng


def gaussian_logpdf_scalar(x, mu, sigma):
    """Independent per-element density oracle."""
    return -math.log(sigma) - 0.5 * math.log(2 * math.pi) - (x - mu) ** 2 / (2 * sigma**2)


def mas_reference(grid, noise_scale=0.0, rng=None):
    """Per-cell double loop over the DP, one Python scalar at a time.

    The column-wise mas_search must match it bit for bit: same noise draw,
    same ``(max(diag, stay) + P) + eps`` per cell, same tie-break.
    """
    vi, vj = grid.valid_i, grid.valid_j
    if vi > vj:
        raise InfeasibleAlignmentError(f"{vi} tokens onto {vj} frames")
    P = grid.valid_region
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

    def test_padding_outside_valid_region_is_ignored(self):
        rng = Rng(2)
        grid = random_grid(rng, 3, 5, 2)
        padded = np.full((6, 9), 1e12)  # huge finite garbage
        padded[:3, :5] = grid.P
        pg = LogProbGrid(P=padded, valid_i=3, valid_j=5)
        a1, q1 = mas_search(grid)
        a2, q2 = mas_search(pg)
        npt.assert_array_equal(a1.durations, a2.durations)
        assert q1 == q2

    def test_invalid_entries_in_valid_region_rejected(self):
        bad = np.zeros((2, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LogProbGrid(P=bad, valid_i=2, valid_j=3)


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
        grid = LogProbGrid(P=P, valid_i=n, valid_j=n)
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
        grid = LogProbGrid(P=np.zeros((2, 3)), valid_i=2, valid_j=3)
        align, _ = mas_search(grid)
        # all alignments tie at 0; advancing on ties keeps the tail short
        npt.assert_array_equal(align.durations, [2, 1])

    def test_infeasible_raises(self):
        grid = LogProbGrid(P=np.zeros((4, 3)), valid_i=4, valid_j=3)
        with pytest.raises(InfeasibleAlignmentError):
            mas_search(grid)
        with pytest.raises(InfeasibleAlignmentError):
            brute_force_align(grid)

    def test_noise_requires_rng(self):
        grid = LogProbGrid(P=np.zeros((2, 3)), valid_i=2, valid_j=3)
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
        grid = LogProbGrid(P=Rng(i * 1000 + j).normal((i, j)) * 5.0, valid_i=i, valid_j=j)
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
            assert_same_search(LogProbGrid(P=P, valid_i=i, valid_j=j), self.SCALES[k % 3], k)

    def test_padded_grids(self):
        rng = Rng(23)
        for k in range(40):
            i = rng.integers(1, 15)
            j = rng.integers(i, i + 40)
            P = np.full((i + rng.integers(0, 4), j + rng.integers(0, 6)), -1e12)
            P[:i, :j] = rng.normal((i, j))
            assert_same_search(LogProbGrid(P=P, valid_i=i, valid_j=j), self.SCALES[k % 3], k)

    def test_signed_zeros(self):
        # constant grid: std(P) = 0, so the noise is a mix of +0.0 and -0.0 and
        # the sign of best_Q depends on which operand each max keeps on a tie
        # (1, 1): best_Q is P[0, 0] itself, so only the final + 0.0 makes it +0.0
        for shape in ((1, 1), (1, 4), (2, 3), (3, 5), (4, 11), (6, 20)):
            for fill in (0.0, -0.0):
                grid = LogProbGrid(P=np.full(shape, fill), valid_i=shape[0], valid_j=shape[1])
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
    return LogProbGrid(P=np.array(cells).reshape(i, j), valid_i=i, valid_j=j)


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
        g13 = LogProbGrid(P=Rng(11).normal((1, 3)), valid_i=1, valid_j=3)
        a, _ = brute_force_align(g13)
        npt.assert_array_equal(a.durations, [3])
        g22 = LogProbGrid(P=Rng(12).normal((2, 2)), valid_i=2, valid_j=2)
        a, _ = brute_force_align(g22)
        npt.assert_array_equal(a.durations, [1, 1])

    def test_two_candidate_case(self):
        grid = LogProbGrid(P=Rng(13).normal((2, 3)), valid_i=2, valid_j=3)
        s12 = alignment_score(grid, Alignment(np.array([1, 2])))
        s21 = alignment_score(grid, Alignment(np.array([2, 1])))
        a, score = brute_force_align(grid)
        assert score == max(s12, s21)
        expected = [1, 2] if s12 >= s21 else [2, 1]
        npt.assert_array_equal(a.durations, expected)

    def test_size_guard(self):
        with pytest.raises(GridSizeError):
            brute_force_align(LogProbGrid(P=np.zeros((7, 9)), valid_i=7, valid_j=9))
        with pytest.raises(GridSizeError):
            brute_force_align(LogProbGrid(P=np.zeros((3, 11)), valid_i=3, valid_j=11))


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
