import math

import numpy as np
import pytest

from conftest import identity_channel, product_joint
from maxcorr.errors import (
    AlphabetMismatchError,
    FeasibilityError,
    ValidationError,
)
from maxcorr.model import (
    Channel,
    JointPmf,
    Pmf,
    apply_channels,
    dump_joint,
    iter_sample_pairs,
    joint_from_samples,
    load_joint,
    make_channel,
    max_feasible_eta,
    parse_matrix,
    require_marginal,
    uniform_pmf,
)

T_BINARY = np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestPmf:
    def test_valid(self):
        p = Pmf(("a", "b"), np.array([0.3, 0.7]))
        assert p.size == 2

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Pmf(("a", "b"), np.array([-0.1, 1.1]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError):
            Pmf(("a", "b"), np.array([0.3, 0.6]))

    def test_require_positive_names_zero_symbol(self):
        with pytest.raises(ValidationError, match="'a' has zero probability"):
            Pmf(("a", "b"), np.array([0.0, 1.0])).require_positive()

    def test_immutable(self):
        p = uniform_pmf(("a", "b"))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_rejects_nan_by_position(self):
        # NaN fails both the sign and the mass comparison, so it is named on its own
        with pytest.raises(ValidationError, match=r"probs has non-finite entry nan at \(1,\)"):
            Pmf(("a", "b", "c"), np.array([0.5, np.nan, 0.5]))


class TestJointPmf:
    def test_rejects_nan_by_row_and_column(self):
        probs = np.full((2, 3), 1 / 6)
        probs[1, 0] = np.nan
        with pytest.raises(ValidationError, match=r"probs has non-finite entry nan at \(1, 0\)"):
            JointPmf(("a", "b", "c"), ("u", "v"), probs)


class TestJointFromSamples:
    def test_counting(self):
        j = joint_from_samples(
            [("a", "0"), ("a", "0"), ("b", "1"), ("b", "1")], ("a", "b"), ("0", "1")
        )
        # probs[(y, x)]: {(0,a): 0.5, (1,b): 0.5}
        assert j.probs[0, 0] == 0.5
        assert j.probs[1, 1] == 0.5
        assert j.probs[0, 1] == 0.0 and j.probs[1, 0] == 0.0

    def test_point_mass(self):
        j = joint_from_samples([("a", "0")], ("a", "b"), ("0", "1"))
        assert j.probs[0, 0] == 1.0

    def test_unknown_label_reports_record(self):
        with pytest.raises(AlphabetMismatchError, match="record 2"):
            joint_from_samples(
                [("a", "0"), ("b", "1"), ("c", "0")], ("a", "b"), ("0", "1")
            )

    def test_empty_stream(self):
        with pytest.raises(ValidationError, match="empty"):
            joint_from_samples([], ("a",), ("0",))

    @pytest.mark.parametrize("x_alphabet", [("a", "b", "a b"), ("a", "", "b"), ("a", "\tb")],
                             ids=["space", "empty", "tab"])
    def test_rejects_labels_a_joint_file_cannot_hold(self, x_alphabet):
        # joint files split labels on whitespace, so these would not read back
        with pytest.raises(ValidationError, match="empty or hold whitespace"):
            joint_from_samples([("a", "0")], x_alphabet, ("0", "1"))

    def test_sampling_recovers_known_joint(self, rng):
        truth = np.array([[0.10, 0.05, 0.15], [0.20, 0.10, 0.05], [0.05, 0.20, 0.10]])
        xs = ("x0", "x1", "x2")
        ys = ("y0", "y1", "y2")
        flat = truth.ravel()
        draws = rng.choice(flat.size, size=10_000, p=flat)
        pairs = [(xs[d % 3], ys[d // 3]) for d in draws]
        j = joint_from_samples(pairs, xs, ys)
        assert np.max(np.abs(j.probs - truth)) < 0.02


class TestChannel:
    def test_identity(self):
        c = make_channel(T_BINARY, 0.0)
        assert np.array_equal(c.P, np.eye(2))

    def test_binary_symmetric(self):
        c = make_channel(T_BINARY, 0.1)
        assert np.allclose(c.P, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_feasibility_error_reports_max(self):
        with pytest.raises(FeasibilityError) as exc:
            make_channel(T_BINARY, 1.2)
        assert exc.value.max_feasible == pytest.approx(1.0, abs=1e-15)

    def test_max_feasible_eta_generic(self):
        # 0 <= 1 + eta*(-0.5) and 0 <= 0 + eta*0.25 etc.; binding entry is
        # the diagonal -0.5: eta <= 2.  Off-diagonal 0.5: eta <= 2 as well.
        t = np.array([[-0.5, 0.5], [0.5, -0.5]])
        assert max_feasible_eta(t) == pytest.approx(2.0)

    def test_decompose_round_trip(self, rng):
        from conftest import random_perturbation_t

        for _ in range(20):
            n = int(rng.integers(2, 6))
            t = random_perturbation_t(rng, n)
            eta = 0.5 * max_feasible_eta(t)
            assert eta > 0
            c = make_channel(t, eta)
            assert c.eta == eta
            assert np.max(np.abs(c.T - t)) < 1e-12
            assert np.max(np.abs(np.eye(n) + eta * t - c.P)) <= 1e-12

    def test_max_feasible_eta_matches_loop(self, rng):
        from conftest import loop_max_feasible_step

        for trial in range(200):
            n = int(rng.integers(1, 7))
            t = rng.normal(size=(n, n))
            t[rng.random((n, n)) < 0.3] = 0.0
            if trial % 4 == 0:
                t = np.diag(np.diag(t))
            assert max_feasible_eta(t) == loop_max_feasible_step(np.eye(n), t)
        assert max_feasible_eta(np.zeros((3, 3))) == math.inf

    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValidationError, match="sums to"):
            Channel(("a", "b"), 0.1, np.array([[-1.0, 0.5], [1.0, -1.0]]))

    def test_rejects_non_finite_t_by_row_and_column(self):
        # a NaN column sums to NaN, which the column-sum check cannot see
        t = T_BINARY.copy()
        t[0, 1] = np.nan
        with pytest.raises(ValidationError, match=r"T has non-finite entry nan at \(0, 1\)"):
            make_channel(t, 0.1)

    @pytest.mark.parametrize("eta", [-0.1, float("nan")], ids=["negative", "nan"])
    def test_rejects_eta_below_zero_or_nan(self, eta):
        with pytest.raises(ValidationError, match="eta must be >= 0"):
            Channel(("a", "b"), eta, T_BINARY)

    def test_direct_construction_checks_eta_bound(self):
        with pytest.raises(FeasibilityError, match="eta exceeds feasibility bound") as exc:
            Channel(("a", "b"), 1.2, T_BINARY)
        assert exc.value.max_feasible == pytest.approx(1.0, abs=1e-15)
        # a T with bad column sums is refused for them first, whatever eta
        with pytest.raises(ValidationError, match="sums to"):
            make_channel(np.array([[-1.0, 0.5], [1.0, -1.0]]), 5.0)


class TestRequireMarginal:
    def test_gap_named(self):
        base = Pmf(("a", "b"), np.array([0.5, 0.5]))
        require_marginal("f", base, Pmf(base.labels, np.array([0.5 + 1e-12, 0.5 - 1e-12])))
        with pytest.raises(ValidationError, match="f base differs from marginal by 0.1"):
            require_marginal("f", base, Pmf(base.labels, np.array([0.6, 0.4])))


class TestApplyChannels:
    def test_identity_channels(self, rng):
        from conftest import random_positive_joint

        j = JointPmf(("a", "b"), ("0", "1", "2"), random_positive_joint(rng, 2, 3))
        out = apply_channels(j, identity_channel(j.x_labels), identity_channel(j.y_labels))
        assert np.array_equal(out.probs, j.probs)

    def test_product_in_product_out(self):
        px = Pmf(("a", "b"), np.array([0.25, 0.75]))
        py = Pmf(("0", "1"), np.array([0.5, 0.5]))
        j = product_joint(px, py)
        cx = make_channel(T_BINARY, 0.2, px.labels)
        cy = make_channel(T_BINARY, 0.3, py.labels)
        out = apply_channels(j, cx, cy)
        expected = product_joint(cx.apply(px), cy.apply(py))
        assert np.max(np.abs(out.probs - expected.probs)) < 1e-15

    def test_hand_oracle_2x2(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.array([[0.4, 0.1], [0.1, 0.4]]))
        cx = make_channel(T_BINARY, 0.1, j.x_labels)
        cy = make_channel(T_BINARY, 0.1, j.y_labels)
        out = apply_channels(j, cx, cy)
        # independent oracle: literal four-term summation
        expected = np.zeros((2, 2))
        for yh in range(2):
            for xh in range(2):
                for y in range(2):
                    for x in range(2):
                        expected[yh, xh] += (
                            cx.P[xh, x] * cy.P[yh, y] * j.probs[y, x]
                        )
        assert np.max(np.abs(out.probs - expected)) < 1e-15

    def test_mass_and_marginal_commutation(self, rng):
        from conftest import random_positive_joint

        from conftest import random_perturbation_t

        j = JointPmf(tuple("abcd"), tuple("wxyz"), random_positive_joint(rng, 4, 4))
        t = random_perturbation_t(rng, 4)
        cx = make_channel(t, 0.3 * max_feasible_eta(t), j.x_labels)
        out = apply_channels(j, cx, identity_channel(j.y_labels))
        assert abs(out.probs.sum() - 1.0) < 1e-12
        assert np.max(np.abs(out.marginal_x().probs - cx.P @ j.marginal_x().probs)) < 1e-12

    def test_alphabet_mismatch(self):
        j = JointPmf(("a", "b"), ("0", "1"), np.full((2, 2), 0.25))
        with pytest.raises(AlphabetMismatchError):
            apply_channels(j, identity_channel(("p", "q")), identity_channel(j.y_labels))


class TestSerialization:
    def test_joint_round_trip(self, rng):
        from conftest import random_positive_joint

        j = JointPmf(("a", "b", "c"), ("u", "v"), random_positive_joint(rng, 3, 2))
        text = dump_joint(j, header=("seed: 1",))
        back = load_joint(text)
        assert back.x_labels == j.x_labels
        assert back.y_labels == j.y_labels
        assert np.array_equal(back.probs, j.probs)

    def test_load_joint_refuses_nan(self):
        text = dump_joint(JointPmf(("a", "b"), ("u", "v"), np.full((2, 2), 0.25)))
        with pytest.raises(ValidationError, match=r"non-finite entry nan at \(0, 1\)"):
            load_joint(text.replace("0.25 0.25\n", "0.25 nan\n", 1))

    def test_parse_matrix_names_a_ragged_row_before_a_word(self):
        # row 3 is both short and non-numeric; the width check runs only
        # after np.loadtxt fails, and its message wins
        with pytest.raises(ValueError, match="^row 3 has 1 entries, row 1 has 2$"):
            parse_matrix("1 2\n3 4\nabc\n")

    def test_parse_matrix_one_row_and_blank_lines(self):
        assert parse_matrix("\n  1 2 3\n\n").shape == (1, 3)
        assert parse_matrix("1\n2\n").shape == (2, 1)
        with pytest.raises(ValueError, match="no rows"):
            parse_matrix(" \n\n")

    def test_sample_pair_reader(self):
        lines = ["x,y", "a,0", "b,1", "", "a,1"]
        assert list(iter_sample_pairs(lines, header=True)) == [
            ("a", "0"),
            ("b", "1"),
            ("a", "1"),
        ]
        with pytest.raises(ValidationError, match="two columns"):
            list(iter_sample_pairs(["a,b,c"]))
