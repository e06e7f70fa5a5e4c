"""Regularizer values, choice maps, conjugates and divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgame import (
    ProductRegularizer,
    Regularizer,
    bregman_distance,
    choice_map,
    conjugate_value,
    fenchel_coupling,
    gradient_h,
    h_value,
    payoffs_from_profile,
    project_simplex,
    restrict_to_interval,
)

from hamgame.regularizers import _SCALAR_CALLS, DOMAIN_TOL, BlockChoiceMap, choice_lines, payoff_limit

from conftest import float_choice, grid_argmax

ENTROPY = Regularizer("entropy", dim=2)
EUCLIDEAN = Regularizer("euclidean", dim=2)


class TestHValue:
    def test_entropy_uniform(self):
        assert h_value(ENTROPY, [0.5, 0.5]) == pytest.approx(-math.log(2), abs=1e-12)

    def test_euclidean_vertex(self):
        assert h_value(EUCLIDEAN, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_scale_is_linear(self):
        scaled = Regularizer("entropy", dim=2, scale=2.0)
        assert h_value(scaled, [0.5, 0.5]) == pytest.approx(-2 * math.log(2), abs=1e-12)

    def test_vertex_entropy_uses_zero_convention(self):
        assert h_value(ENTROPY, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_point_off_simplex(self):
        with pytest.raises(ValueError, match="outside"):
            h_value(ENTROPY, [0.7, 0.7])


class TestChoiceMap:
    def test_entropy_symmetric(self):
        np.testing.assert_allclose(choice_map(ENTROPY, [0.0, 0.0]), [0.5, 0.5])

    def test_entropy_log_weights(self):
        # independent grid maximizer first, analytic value second
        oracle = grid_argmax(ENTROPY, [math.log(2), 0.0])
        x = choice_map(ENTROPY, [math.log(2), 0.0])
        np.testing.assert_allclose(x, oracle, atol=2e-4)
        np.testing.assert_allclose(x, [2 / 3, 1 / 3], atol=1e-12)

    def test_euclidean_interior(self):
        oracle = grid_argmax(EUCLIDEAN, [2.0, 1.0])
        x = choice_map(EUCLIDEAN, [2.0, 1.0])
        np.testing.assert_allclose(x, oracle, atol=2e-4)
        np.testing.assert_allclose(x, [0.75, 0.25], atol=1e-12)

    def test_euclidean_boundary_clamp(self):
        oracle = grid_argmax(EUCLIDEAN, [5.0, 0.0])
        x = choice_map(EUCLIDEAN, [5.0, 0.0])
        np.testing.assert_allclose(x, oracle, atol=2e-4)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_matches_grid_oracle_for_random_payoffs(self, rng):
        for reg in (ENTROPY, EUCLIDEAN):
            for _ in range(50):
                y = rng.normal(scale=2.0, size=2)
                np.testing.assert_allclose(
                    choice_map(reg, y), grid_argmax(reg, y), atol=2e-4
                )

    def test_overflow_safe(self):
        x = choice_map(ENTROPY, [1e6, 0.0])
        assert np.all(np.isfinite(x))
        assert x[0] == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            choice_map(ENTROPY, [np.nan, 0.0])

    def test_batched_matches_loop(self, rng):
        ys = rng.normal(size=(7, 2))
        batch = choice_map(EUCLIDEAN, ys)
        for row, y in zip(batch, ys):
            np.testing.assert_array_equal(row, choice_map(EUCLIDEAN, y))


class TestConjugate:
    def test_entropy_closed_form(self):
        assert conjugate_value(ENTROPY, [0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_closed_form_matches_generic(self, rng):
        for _ in range(25):
            y = rng.normal(scale=3.0, size=2)
            x = choice_map(ENTROPY, y)
            generic = float(x @ y - h_value(ENTROPY, x))
            assert conjugate_value(ENTROPY, y) == pytest.approx(generic, abs=1e-10)

    def test_euclidean_example(self):
        oracle = grid_argmax(EUCLIDEAN, [1.0, 1.0])
        np.testing.assert_allclose(oracle, [0.5, 0.5], atol=2e-4)
        assert conjugate_value(EUCLIDEAN, [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_payoff_matches_grid(self, rng):
        for reg in (ENTROPY, EUCLIDEAN):
            c = float(rng.normal())
            y = np.array([c, c])
            xg = grid_argmax(reg, y)
            best = float(xg @ y - h_value(reg, xg))
            assert conjugate_value(reg, y) >= best - 1e-10
            assert conjugate_value(reg, y) == pytest.approx(best, abs=1e-6)


class TestBregman:
    def test_identity_is_zero(self):
        for reg in (ENTROPY, EUCLIDEAN):
            x = np.array([0.3, 0.7])
            assert bregman_distance(reg, x, x) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_is_kl(self):
        x_ref = np.array([0.5, 0.5])
        x = np.array([0.25, 0.75])
        kl = float(np.sum(x_ref * np.log(x_ref / x)))
        assert kl == pytest.approx(0.1438, abs=5e-5)
        assert bregman_distance(ENTROPY, x_ref, x) == pytest.approx(kl, abs=1e-12)

    def test_euclidean_is_squared_distance(self):
        d = bregman_distance(EUCLIDEAN, [1.0, 0.0], [0.0, 1.0])
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_entropy_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            bregman_distance(ENTROPY, [0.5, 0.5], [1.0, 0.0])


class TestFenchel:
    def test_gradient_point_gives_zero(self):
        x_ref = np.array([0.3, 0.7])
        y = gradient_h(ENTROPY, x_ref)
        assert fenchel_coupling(ENTROPY, x_ref, y) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_zero_payoff(self):
        assert fenchel_coupling(ENTROPY, [0.5, 0.5], [0.0, 0.0]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_dominates_bregman_at_choice(self, rng):
        for reg in (ENTROPY, EUCLIDEAN):
            for _ in range(40):
                y = rng.normal(size=2)
                x = choice_map(reg, y)
                if np.min(x) <= 1e-9:
                    continue
                x_ref = rng.dirichlet([2.0, 2.0])
                gap = fenchel_coupling(reg, x_ref, y) - bregman_distance(reg, x_ref, x)
                assert -1e-10 <= gap <= 1e-10


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["entropy", "euclidean"]),
    y=st.lists(st.floats(-20, 20), min_size=2, max_size=2),
    weights=st.lists(st.floats(0.05, 5), min_size=2, max_size=2),
)
def test_fenchel_young_inequality(kind, y, weights):
    reg = Regularizer(kind, dim=2)
    y = np.asarray(y)
    x = np.asarray(weights) / np.sum(weights)
    lhs = h_value(reg, x) + conjugate_value(reg, y)
    assert lhs >= float(x @ y) - 1e-10
    xc = choice_map(reg, y)
    equality = h_value(reg, xc) + conjugate_value(reg, y) - float(xc @ y)
    assert abs(equality) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["entropy", "euclidean"]),
    y1=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    y2=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
)
def test_choice_map_is_monotone(kind, y1, y2):
    reg = Regularizer(kind, dim=3)
    y1, y2 = np.asarray(y1), np.asarray(y2)
    gap = float((choice_map(reg, y1) - choice_map(reg, y2)) @ (y1 - y2))
    assert gap >= -1e-10


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["entropy", "euclidean"]),
    y=st.lists(st.floats(-10, 10), min_size=2, max_size=4),
    scale=st.floats(0.1, 10),
)
def test_scale_linearity(kind, y, scale):
    y = np.asarray(y)
    scaled = Regularizer(kind, dim=len(y), scale=scale)
    unit = Regularizer(kind, dim=len(y))
    np.testing.assert_allclose(
        choice_map(scaled, y), choice_map(unit, y / scale), atol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(y=st.lists(st.floats(-50, 50), min_size=2, max_size=5))
def test_choice_map_stays_on_simplex(y):
    for kind in ("entropy", "euclidean"):
        x = choice_map(Regularizer(kind, dim=len(y)), np.asarray(y))
        assert abs(float(np.sum(x)) - 1.0) <= 1e-12
        assert np.all(x >= 0.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    width=st.integers(2, 10),
    scale=st.sampled_from([1e-3, 0.5, 1.0, 7.0]),
    sign=st.sampled_from([1.0, -1.0]),
    spread=st.sampled_from([1e-9, 0.3, 1.0]),
    rows=st.sampled_from([None, 3, 2000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_within_domain_tol_below_payoff_limit(width, scale, sign, spread, rows, seed):
    # near-tie rows just inside |y| <= payoff_limit: with the entries less
    # than 1 / width apart in u = y / (2 s) every one counts toward rho, the
    # case with the largest rounding error; 2000 rows of up to 7 take the
    # compare-exchange network, wider or fewer rows the sort
    reg = Regularizer("euclidean", dim=width, scale=scale)
    limit = payoff_limit(reg)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=(rows or 1, width)) * spread / width
    y = sign * (limit - 2.0 * scale) + 2.0 * scale * u
    assert np.abs(y).max() <= limit
    x = choice_map(reg, y if rows else y[0])
    assert np.abs(np.sum(x, axis=-1) - 1.0).max() <= DOMAIN_TOL
    assert np.all(x >= 0.0)
    assert np.all(np.isfinite(h_value(reg, x)))  # raises outside the domain


class TestProjection:
    def test_interior_point_fixed(self):
        np.testing.assert_allclose(project_simplex([0.2, 0.3, 0.5]), [0.2, 0.3, 0.5])

    def test_known_projection(self):
        np.testing.assert_allclose(project_simplex([1.0, 0.5]), [0.75, 0.25])

    def test_batched(self, rng):
        v = rng.normal(size=(6, 4))
        out = project_simplex(v)
        np.testing.assert_allclose(np.sum(out, axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)


class TestIntervalDomain:
    """Box forms are the two-strategy simplex collapsed to one coordinate."""

    def test_restrict_matches_simplex_entropy(self, rng):
        box = restrict_to_interval(ENTROPY)
        for _ in range(20):
            y = rng.normal(size=2)
            x = choice_map(ENTROPY, y)
            u = choice_map(box, np.array([y[0] - y[1]]))
            assert u[0] == pytest.approx(x[0], abs=1e-12)

    def test_restrict_matches_simplex_euclidean(self, rng):
        box = restrict_to_interval(EUCLIDEAN)
        for _ in range(20):
            y = rng.normal(size=2)
            x = choice_map(EUCLIDEAN, y)
            u = choice_map(box, np.array([y[0] - y[1]]))
            assert u[0] == pytest.approx(x[0], abs=1e-12)

    def test_values_match_up_to_linear_shift(self, rng):
        # h*(y1, y2) = h_box*(y1 - y2) + y2 for both kinds
        for kind in ("entropy", "euclidean"):
            reg = Regularizer(kind, dim=2)
            box = restrict_to_interval(reg)
            y = rng.normal(size=2)
            full = conjugate_value(reg, y)
            collapsed = conjugate_value(box, np.array([y[0] - y[1]])) + y[1]
            assert full == pytest.approx(float(collapsed), abs=1e-10)

    def test_bregman_matches_simplex(self):
        for kind in ("entropy", "euclidean"):
            reg = Regularizer(kind, dim=2)
            box = restrict_to_interval(reg)
            full = bregman_distance(reg, [0.5, 0.5], [0.3, 0.7])
            collapsed = bregman_distance(box, [0.5], [0.3])
            assert float(full) == pytest.approx(float(collapsed), abs=1e-12)


class TestProductRegularizer:
    def test_blockwise_consistency(self, rng):
        blocks = (ENTROPY, Regularizer("euclidean", dim=3))
        prod = ProductRegularizer(blocks)
        y = rng.normal(size=5)
        np.testing.assert_array_equal(
            choice_map(prod, y),
            np.concatenate([choice_map(blocks[0], y[:2]), choice_map(blocks[1], y[2:])]),
        )
        x = choice_map(prod, y)
        assert h_value(prod, x) == pytest.approx(
            float(h_value(blocks[0], x[:2]) + h_value(blocks[1], x[2:])), abs=1e-12
        )
        assert conjugate_value(prod, y) == pytest.approx(
            float(conjugate_value(blocks[0], y[:2]) + conjugate_value(blocks[1], y[2:])),
            abs=1e-12,
        )


def test_payoffs_from_profile_round_trip(rng):
    for kind in ("entropy", "euclidean"):
        reg = Regularizer(kind, dim=3)
        x = rng.dirichlet([3.0, 3.0, 3.0])
        y = payoffs_from_profile(reg, x)
        np.testing.assert_allclose(choice_map(reg, y), x, atol=1e-10)


BOX_ENTROPY = Regularizer("entropy", domain="box", dim=2, scale=1.5)
BOX_EUCLIDEAN = Regularizer("euclidean", domain="box", dim=1, scale=0.5)


@pytest.mark.parametrize("reg, x", [
    (BOX_ENTROPY, [0.3, 0.8]),
    (BOX_EUCLIDEAN, [0.7]),
    (ProductRegularizer((ENTROPY, BOX_EUCLIDEAN, Regularizer("euclidean", dim=3))), [0.6, 0.4, 0.2, 0.1, 0.3, 0.6]),
])
def test_payoffs_from_profile_inverts_box_and_product_choice_maps(reg, x):
    np.testing.assert_allclose(choice_map(reg, payoffs_from_profile(reg, x)), x, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Regularizer("bogus"), "unknown regularizer kind 'bogus'", id="unknown-kind"),
    pytest.param(lambda: Regularizer("entropy", domain="ball"), "unknown domain 'ball'", id="unknown-domain"),
    pytest.param(lambda: Regularizer("entropy", dim=0), "dimension must be >= 1", id="no-dimension"),
    pytest.param(lambda: Regularizer("entropy", scale=0.0), "scale must be positive", id="zero-scale"),
    pytest.param(lambda: ProductRegularizer(()), "product regularizer needs at least one block", id="no-blocks"),
    pytest.param(lambda: payoffs_from_profile(ENTROPY, np.full(3, 1 / 3)), "point has dimension 3, expected 2",
                 id="point-dimension"),
    pytest.param(lambda: choice_map(ENTROPY, np.zeros(3)), "payoff vector has dimension 3, expected 2",
                 id="payoff-dimension"),
    pytest.param(lambda: conjugate_value(EUCLIDEAN, [np.inf, 0.0]), "conjugate requires finite payoff vector",
                 id="conjugate-not-finite"),
    pytest.param(lambda: restrict_to_interval(Regularizer("entropy", dim=3)),
                 "only a two-strategy simplex regularizer can be collapsed", id="collapse-three-strategies"),
])
def test_malformed_regularizer_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestNumpyCallForms:
    """The generated choice maps call numpy's exp and tanh once per value
    while a map holds at most _SCALAR_CALLS of them, else once on a list of
    them all, and BlockChoiceMap calls each on whole arrays.  Every form must
    give the bits of the array call: where numpy's 0-d and array loops
    disagree, these tests fail, and name the values."""

    SEED = 27

    @staticmethod
    def _inputs(name):
        rng = np.random.default_rng(TestNumpyCallForms.SEED)
        if name == "exp":  # u - max <= 0: normal, subnormal (below -708.4) and underflowed (below -745.1) results
            parts = [rng.uniform(-760.0, 0.0, 40_000), rng.uniform(-746.0, -708.0, 30_000),
                     -(10.0 ** rng.uniform(-320.0, 1.0, 30_000)),
                     [0.0, -0.0, -5e-324, -708.3964185322641, -708.4, -745.1332191019411, -745.2]]
        else:
            parts = [rng.uniform(-30.0, 30.0, 90_000), rng.normal(0.0, 1e-3, 10_000), [0.0, -0.0]]
        return np.concatenate(parts)

    @pytest.mark.parametrize("name", ["exp", "tanh"])
    def test_scalar_and_list_calls_give_the_array_call_bits(self, name):
        ufunc, v = getattr(np, name), self._inputs(name)
        assert v.size > 10**5
        whole = ufunc(v).view(np.uint64)
        values, width = v.tolist(), _SCALAR_CALLS + 1  # the generated code's arguments are Python floats
        forms = {
            "a scalar call": [float(ufunc(a)) for a in values],
            "a list call": [out for j in range(0, len(values), width) for out in ufunc(values[j : j + width]).tolist()],
        }
        for form, outs in forms.items():
            bad = np.flatnonzero(np.array(outs).view(np.uint64) != whole)
            assert not bad.size, f"np.{name} by {form} differs from the array call at {v[bad[:5]].tolist()}"

    @pytest.mark.parametrize("domain, name", [("simplex", "exp"), ("box", "tanh")])
    @pytest.mark.parametrize("values", [_SCALAR_CALLS, _SCALAR_CALLS + 1])
    def test_generated_map_at_the_switch_is_block_choice_map(self, domain, name, values):
        # one block and two: the count is the whole map's, not a block's
        splits = [[values], [3, values - 3]]
        for dims in splits:
            regs = [Regularizer("entropy", domain=domain, dim=k, scale=0.75) for k in dims]
            leaves = BlockChoiceMap(regs).leaves
            y, x = ([f"{c}{i}" for i in range(values)] for c in "yx")
            source = "\n".join(choice_lines(leaves, y, x))
            assert source.count(f"float({name}(") == (values if values <= _SCALAR_CALLS else 0)
            assert source.count(f"= {name}([") == (values > _SCALAR_CALLS)
            generated, array = float_choice(regs), BlockChoiceMap(regs)
            rng = np.random.default_rng(self.SEED)
            for spread in (1.0, 100.0, 2000.0):  # 2000 underflows exp and saturates tanh
                for row in rng.normal(0.0, spread, (300, values)):
                    expected = array(row).view(np.uint64)
                    assert (np.array(generated(row.tolist())).view(np.uint64) == expected).all(), row.tolist()
