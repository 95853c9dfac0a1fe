import numpy as np
import pytest

from conftest import one_step, random_ellipsoid, spd_matrix, support, tall_stage, unit_ball_volume
from ellipsum import (
    DimensionMismatch,
    Ellipsoid,
    EllipsumError,
    LtiStage,
    NotPositiveDefinite,
    SingularMap,
    containment_check,
    mvoe_pair,
    propagate_backward,
    propagate_forward,
)
from ellipsum.ellipsoid import _lift, affine_image


def interval(radius: float) -> Ellipsoid:
    return Ellipsoid([0.0], [[radius * radius]])


def scalar_stage(f: float, g: float, input_radius: float = 1.0) -> LtiStage:
    return LtiStage(F=[[f]], G=[[g]], input_set=interval(input_radius))


def radius(e: Ellipsoid) -> float:
    return float(np.sqrt(e.shape[0, 0]))


class TestStageValidation:
    def test_rejects_nonsquare_f(self):
        with pytest.raises(DimensionMismatch):
            LtiStage(F=np.ones((2, 3)), G=np.ones((2, 1)), input_set=interval(1.0))

    def test_rejects_inconsistent_g(self):
        with pytest.raises(DimensionMismatch):
            LtiStage(F=np.eye(2), G=np.ones((3, 1)), input_set=interval(1.0))

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(DimensionMismatch):
            LtiStage(F=np.eye(2), G=np.ones((2, 2)), input_set=interval(1.0))

    @pytest.mark.parametrize("name", ["F", "G"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_maps(self, name, bad):
        maps = {"F": [[0.5]], "G": [[1.0]]}
        maps[name] = [[bad]]
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            LtiStage(input_set=interval(1.0), **maps)


class TestStepForward:
    def test_scalar_example_exact(self):
        # |F| r + |G| r_u = 0.5 * 1 + 1 * 1 = 1.5, shape (1.5)^2 = 2.25
        out = one_step(propagate_forward, interval(1.0), scalar_stage(0.5, 1.0), eps=0.0)
        assert out.shape[0, 0] == 2.25

    def test_identity_with_eps_lift_only(self):
        rng = np.random.default_rng(90)
        state = random_ellipsoid(rng, 2, log_lo=-0.5, log_hi=0.5)
        tiny = Ellipsoid(np.zeros(2), 1e-18 * np.eye(2))
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=tiny)
        out = one_step(propagate_forward, state, stage, eps=1e-9)
        assert np.allclose(out.center, state.center, atol=1e-12)
        for u in rng.normal(size=(50, 2)):
            assert support(out, u) >= support(state, u) - 1e-12
            assert support(out, u) <= support(state, u) + 1e-3 * np.linalg.norm(u)

    def test_output_contains_both_summands(self):
        rng = np.random.default_rng(91)
        state = random_ellipsoid(rng, 3)
        stage = LtiStage(
            F=rng.normal(size=(3, 3)) + 3.0 * np.eye(3),
            G=rng.normal(size=(3, 2)),
            input_set=random_ellipsoid(rng, 2),
        )
        out = one_step(propagate_forward, state, stage, eps=1e-9)
        mapped = affine_image(state, stage.F)
        driven = Ellipsoid(
            stage.G @ stage.input_set.center,
            _lift(stage.G @ stage.input_set.shape @ stage.G.T, 1e-9),
        )
        report = containment_check(out, [mapped, driven], n_dirs=1000, seed=5)
        assert report.passed, report.details

    def test_dim_mismatch(self):
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=random_ellipsoid(np.random.default_rng(0), 2))
        with pytest.raises(DimensionMismatch):
            one_step(propagate_forward, interval(1.0), stage)


class TestPropagateForward:
    def test_empty_stages(self):
        x0 = interval(1.0)
        tube = propagate_forward(x0, [])
        assert len(tube) == 1
        assert tube[0] is x0

    def test_documented_two_step_recursion(self):
        stage = scalar_stage(0.5, 1.0)
        tube = propagate_forward(interval(1.0), [stage, stage], eps=0.0)
        radii = [radius(e) for e in tube]
        assert np.allclose(radii, [1.0, 1.5, 1.75], rtol=0.0, atol=1e-13)

    def test_scalar_recursion_law_random(self):
        rng = np.random.default_rng(92)
        f, g, ru = 0.8, 0.3, 2.0
        stage = scalar_stage(f, g, ru)
        tube = propagate_forward(interval(1.0), [stage] * 5, eps=0.0)
        r = 1.0
        for k in range(1, len(tube)):
            r = abs(f) * r + abs(g) * ru
            assert abs(radius(tube[k]) - r) < 1e-12 * max(1.0, r)

    def test_every_stage_contains_constructors(self):
        rng = np.random.default_rng(93)
        stages = [
            LtiStage(
                F=rng.normal(size=(2, 2)) + 2.0 * np.eye(2),
                G=rng.normal(size=(2, 2)),
                input_set=random_ellipsoid(rng, 2),
            )
            for _ in range(2)
        ]
        x0 = random_ellipsoid(rng, 2)
        tube = propagate_forward(x0, stages, eps=1e-9)
        for k, stage in enumerate(stages):
            mapped = affine_image(tube[k], stage.F)
            driven = Ellipsoid(
                stage.G @ stage.input_set.center,
                _lift(stage.G @ stage.input_set.shape @ stage.G.T, 1e-9),
            )
            report = containment_check(tube[k + 1], [mapped, driven], n_dirs=1000, seed=7)
            assert report.passed, report.details

    def test_volumes_nondecreasing_under_pure_inflation(self):
        rng = np.random.default_rng(94)
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=random_ellipsoid(rng, 2))
        tube = propagate_forward(random_ellipsoid(rng, 2), [stage] * 4, eps=0.0)
        volumes = [e.volume() for e in tube]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(volumes, volumes[1:]))


class TestStepBackward:
    def test_scalar_example_exact(self):
        # F^{-1} = 2: 2 * 1.5 + 2 * 1 = 5, shape 25
        out = one_step(propagate_backward, interval(1.5), scalar_stage(0.5, 1.0), eps=0.0)
        assert out.shape[0, 0] == 25.0

    def test_identity_with_degenerate_input(self):
        rng = np.random.default_rng(95)
        terminal = random_ellipsoid(rng, 2, log_lo=-0.5, log_hi=0.5)
        tiny = Ellipsoid(np.zeros(2), 1e-18 * np.eye(2))
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=tiny)
        out = one_step(propagate_backward, terminal, stage, eps=1e-9)
        for u in rng.normal(size=(50, 2)):
            assert support(out, u) >= support(terminal, u) - 1e-12

    def test_singular_f_rejected(self):
        stage = LtiStage(F=[[0.0]], G=[[1.0]], input_set=interval(1.0))
        with pytest.raises(SingularMap):
            one_step(propagate_backward, interval(1.0), stage, eps=0.0)

    def test_near_singular_f_rejected(self):
        # cond(F) = 1e200; the computed inverse is exact, with residual 0
        stage = LtiStage(
            F=[[1.0, 0.0], [0.0, 1e-200]], G=np.eye(2), input_set=random_ellipsoid(np.random.default_rng(1), 2)
        )
        with pytest.raises(SingularMap):
            one_step(propagate_backward, random_ellipsoid(np.random.default_rng(2), 2), stage, eps=0.0)

    def test_ill_conditioned_f_with_small_residual_rejected(self):
        # cond(F) = 4e14: F'F factors and the computed F^{-1} has a residual
        # of 4e-17, yet its relative error bound, eps cond(F), is 0.09
        f = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
        stage = LtiStage(F=f, G=np.eye(2), input_set=random_ellipsoid(np.random.default_rng(3), 2))
        with pytest.raises(SingularMap, match=r"cond\(F\) 4\.\d+e\+14"):
            one_step(propagate_backward, random_ellipsoid(np.random.default_rng(4), 2), stage, eps=0.0)

    def test_inverse_follows_the_condition_bound(self):
        # F = U diag(sigma) V' at scales 1e-3..1e3 with cond(F) swept over
        # 10^0..10^16: above eps^{-1/2} every F raises, below a tenth of it
        # none does
        bound = np.finfo(float).eps ** -0.5
        rng = np.random.default_rng(99)
        for dim in (2, 3, 6):
            for cond in np.logspace(0.0, 16.0, 33):
                if bound / 10.0 <= cond <= bound:
                    continue
                left, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                right, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                sigma = 10.0 ** rng.uniform(-3.0, 3.0) * np.geomspace(1.0, 1.0 / cond, dim)
                stage = LtiStage(F=(left * sigma) @ right.T, G=np.eye(dim), input_set=random_ellipsoid(rng, dim))
                x = Ellipsoid(np.zeros(dim), np.eye(dim))
                if cond > bound:
                    with pytest.raises(SingularMap):
                        one_step(propagate_backward, x, stage, eps=0.0)
                else:
                    one_step(propagate_backward, x, stage, eps=0.0)

    def test_backward_recovers_forward_start(self):
        # the backward tube from the forward endpoint must contain the start set
        stage = scalar_stage(0.5, 1.0)
        forward = propagate_forward(interval(1.0), [stage], eps=0.0)
        back = one_step(propagate_backward, forward[-1], stage, eps=0.0)
        for u in ([1.0], [-1.0]):
            assert support(back, u) >= support(forward[0], u) - 1e-12


class TestPropagateBackward:
    def test_two_step_scalar(self):
        stage = scalar_stage(0.5, 1.0)
        tube = propagate_backward(interval(1.5), [stage, stage], eps=0.0)
        radii = [radius(e) for e in tube]
        # r_prev = 2 r + 2: 1.5 -> 5 -> 12
        assert np.allclose(radii, [1.5, 5.0, 12.0], rtol=0.0, atol=1e-12)


def random_stage(rng, gain: float, n: int = 3, m: int = 2) -> LtiStage:
    """A stage whose F is ``gain`` times a random rotation, so tubes stay
    bounded forward for gain < 1 and backward for gain > 1."""
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return LtiStage(F=gain * frame, G=rng.normal(size=(n, m)), input_set=random_ellipsoid(rng, m))


def same_values(stage: LtiStage) -> LtiStage:
    u = stage.input_set
    return LtiStage(F=stage.F.copy(), G=stage.G.copy(), input_set=Ellipsoid(u.center, u.shape))


class TestStageReuse:
    def test_repeated_stage_matches_distinct_equal_stages(self):
        rng = np.random.default_rng(96)
        x0 = random_ellipsoid(rng, 3)
        for propagate, gain in ((propagate_forward, 0.9), (propagate_backward, 1.2)):
            stage = random_stage(rng, gain)
            shared = [stage] * 100
            distinct = [same_values(stage) for _ in range(100)]
            a = propagate(x0, shared, eps=1e-9)
            b = propagate(x0, distinct, eps=1e-9)
            for ea, eb in zip(a, b):
                assert np.array_equal(ea.center, eb.center)
                assert np.array_equal(ea.shape, eb.shape)

    def test_inverse_probed_once_per_distinct_stage(self, monkeypatch):
        from ellipsum import reach

        calls = []
        probe = reach._inverse_or_raise

        def counting(f):
            calls.append(f)
            return probe(f)

        monkeypatch.setattr(reach, "_inverse_or_raise", counting)
        rng = np.random.default_rng(97)
        first, second = random_stage(rng, 1.2), random_stage(rng, 1.1)
        propagate_backward(random_ellipsoid(rng, 3), [first] * 30 + [second] * 30, eps=1e-9)
        assert len(calls) == 2

    def test_singular_middle_stage_still_raises(self):
        rng = np.random.default_rng(98)
        singular = LtiStage(F=np.diag([1.0, 0.0, 1.0]), G=np.eye(3), input_set=random_ellipsoid(rng, 3))
        stages = [random_stage(rng, 1.2, m=3), singular, random_stage(rng, 1.2, m=3)]
        with pytest.raises(SingularMap):
            propagate_backward(random_ellipsoid(rng, 3), stages, eps=0.0)

    def test_stage_keeps_read_only_copies(self):
        f, g = np.eye(2), np.eye(2)
        stage = LtiStage(F=f, G=g, input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        f[0, 0] = 5.0
        g[1, 1] = 5.0
        assert stage.F[0, 0] == 1.0 and stage.G[1, 1] == 1.0
        for a in (stage.F, stage.G):
            with pytest.raises(ValueError):
                a[0, 0] = 2.0


class TestSingularImage:
    def test_forward_rank_deficient_map_raises(self):
        # a forward step pulls the input image back through F^{-1}, which
        # this F of rank 1 does not have
        stage = LtiStage(F=[[1.0, 0.0], [1.0, 0.0]], G=np.eye(2), input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(SingularMap, match=r"state matrix F is singular"):
            propagate_forward(Ellipsoid(np.zeros(2), np.eye(2)), [stage])

    def test_forward_map_whose_inverse_overflows_raises(self):
        # F^{-1} L_in = 1e350 I: F is invertible in exact arithmetic, but the
        # input image cannot be pulled back through it in double precision
        stage = LtiStage(F=1e-200 * np.eye(2), G=np.eye(2), input_set=Ellipsoid(np.zeros(2), 1e300 * np.eye(2)))
        with pytest.raises(SingularMap, match=r"state matrix F is numerically singular"):
            one_step(propagate_forward, Ellipsoid(np.zeros(2), np.eye(2)), stage, eps=0.0)

    def test_overflowing_tube_is_not_reported_singular(self):
        stage = LtiStage(F=1e100 * np.eye(2), G=np.eye(2), input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(EllipsumError, match="non-finite") as info:
            propagate_forward(Ellipsoid(np.zeros(2), np.eye(2)), [stage] * 5)
        assert not isinstance(info.value, SingularMap)

    def test_overflowing_center_is_rejected(self):
        # the center passes 1e308 at step 11 while the shape is near 1e220
        stage = LtiStage(F=1e10 * np.eye(2), G=np.eye(2), input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(EllipsumError, match="center has non-finite entries") as info:
            propagate_forward(Ellipsoid([1e200, 0.0], np.eye(2)), [stage] * 12)
        assert not isinstance(info.value, SingularMap)

    def test_overflowing_forward_step_center_is_rejected(self):
        # F x0 stays finite; adding the input's center overflows
        x0 = Ellipsoid([1e308, 0.0], np.eye(2))
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=x0)
        with pytest.raises(EllipsumError, match="center has non-finite entries"):
            one_step(propagate_forward, x0, stage, eps=0.0)

    def test_overflowing_backward_step_center_is_rejected(self):
        # F^{-1} x1 = 2e308 overflows in the map itself
        stage = LtiStage(F=0.5 * np.eye(2), G=np.eye(2), input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        with pytest.raises(EllipsumError, match="center has non-finite entries"):
            one_step(propagate_backward, Ellipsoid([1e308, 0.0], np.eye(2)), stage, eps=0.0)


def disk() -> Ellipsoid:
    return Ellipsoid(np.zeros(2), np.eye(2))


class TestInputImages:
    @pytest.mark.parametrize(
        "propagate, start, stage",
        [
            (propagate_forward, interval(1.0), LtiStage(F=[[0.5]], G=[[1e200]], input_set=interval(1e100))),
            (
                propagate_forward,
                interval(1.0),
                LtiStage(F=[[0.5]], G=[[1e200]], input_set=Ellipsoid([1e200], [[1e-300]])),
            ),
            (propagate_backward, disk(), LtiStage(F=0.5 * np.eye(2), G=np.diag([1e160, 1.0]), input_set=disk())),
        ],
        ids=["forward-shape", "forward-center", "backward-shape"],
    )
    def test_overflowing_image_raises_typed_error(self, propagate, start, stage):
        with pytest.raises(EllipsumError, match=r"non-finite entries \(overflow\)") as info:
            propagate(start, [stage], eps=1e-9)
        assert not isinstance(info.value, SingularMap)

    @pytest.mark.parametrize(
        "propagate, mapping", [(propagate_forward, "(N = G)"), (propagate_backward, "(N = -F^{-1} G)")]
    )
    def test_rank_deficient_image_names_itself_and_eps(self, propagate, mapping):
        # a tall G at eps = 0 leaves the input image singular; the error
        # names the image and eps, not only a Cholesky pivot
        stage = LtiStage(F=0.5 * np.eye(2), G=[[1.0], [0.0]], input_set=interval(1.0))
        with pytest.raises(NotPositiveDefinite) as info:
            propagate(disk(), [stage], eps=0.0)
        message = str(info.value)
        assert info.value.pivot == 1
        assert message.startswith(f"input image N U N' {mapping} is not positive definite (pivot 1)")
        assert "at eps = 0.0" in message and "needs eps > 0" in message

    @pytest.mark.parametrize("propagate", [propagate_forward, propagate_backward])
    @pytest.mark.parametrize("eps", [np.nan, -1e-3, np.inf])
    def test_invalid_eps_rejected(self, propagate, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            propagate(interval(1.0), [scalar_stage(0.5, 1.0)], eps=eps)


def recording_chain(monkeypatch):
    """Record the beta of every pair step the reach module's chain takes."""
    from ellipsum import reach

    betas = []
    chain = reach._chain

    def recording(*args):
        for step in chain(*args):
            betas.append(step[1])
            yield step

    monkeypatch.setattr(reach, "_chain", recording)
    return betas


class TestLongTubes:
    """Each step takes its spectrum against the previous step's factor, in
    the pre-image coordinates of the map, and factors only its output; over
    1000 steps the stored factor, log-volume and every beta must stay on a
    validated reference."""

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("dim", [3, 6])
    def test_thousand_steps_stay_on_reference(self, monkeypatch, dim, backward):
        rng = np.random.default_rng(1300 + dim + 10 * backward)
        log_ball = np.log(unit_ball_volume(dim))
        # spectral radius <= 0.9 of F forward and of F^{-1} backward
        low, high = (1.0 / 0.9, 2.0) if backward else (0.5, 0.9)
        stages = [tall_stage(rng, dim, 2, low, high) for _ in range(10)] * 100
        x0 = random_ellipsoid(rng, dim)
        betas = recording_chain(monkeypatch)
        if backward:
            tube = propagate_backward(x0, stages, eps=1e-9)
            steps = [s._chain_step(1e-9, True) for s in reversed(stages)]
        else:
            tube = propagate_forward(x0, stages, eps=1e-9)
            steps = [s._chain_step(1e-9, False) for s in stages]
        assert len(betas) == 1000
        worst_factor = worst_log_volume = worst_beta = 0.0
        for k, (m, center, shape, _) in enumerate(steps):
            prev, out = tube[k], tube[k + 1]
            s = out.factor
            worst_factor = max(worst_factor, np.linalg.norm(s @ s.T - out.shape) / np.linalg.norm(out.shape))
            expected = log_ball + 0.5 * np.linalg.slogdet(out.shape)[1]
            worst_log_volume = max(worst_log_volume, abs(out.log_volume() - expected) / max(1.0, abs(expected)))
            reference = mvoe_pair(Ellipsoid(m @ prev.center, m @ prev.shape @ m.T), Ellipsoid(center, shape))
            worst_beta = max(worst_beta, abs(betas[k] - reference.beta) / reference.beta)
        assert worst_factor <= 1e-10
        assert worst_log_volume <= 1e-10
        assert worst_beta <= 1e-10


class TestPullBack:
    """A reach step takes its spectrum against the state's own factor and a
    factor of M^{-1} Q_in M^{-T}: F^{-1} L_in from a solve forward, F L_in
    backward. Its log-volume must match that of the pair E(M q, M Q M') and
    the input image, solved from their generalized spectrum."""

    @staticmethod
    def reference_log_volume(q1, q2):
        sl = pytest.importorskip("scipy.linalg")
        so = pytest.importorskip("scipy.optimize")
        lam = sl.eigh(q2, q1, eigvals_only=True)

        def residual(t):
            beta = np.exp(t)
            return float(np.sum((1.0 - beta * beta * lam) / (1.0 + beta * lam)))

        t = so.brentq(residual, -0.5 * np.log(lam[-1]), -0.5 * np.log(lam[0]), xtol=1e-14)
        beta = float(np.exp(t))
        _, logdet = np.linalg.slogdet((1.0 + 1.0 / beta) * q1 + (1.0 + beta) * q2)
        return float(np.log(unit_ball_volume(q1.shape[0])) + 0.5 * logdet)

    @pytest.mark.parametrize("cond", [1e1, 1e3, 1e5])
    def test_log_volume_matches_generalized_eigh_reference(self, cond):
        # F = O diag(1 .. 1/cond) at d = 6, with round states and inputs, so
        # that the conditioning under test is F's
        rng = np.random.default_rng(1330 + int(np.log10(cond)))
        d = 6
        worst = 0.0
        for _ in range(10):
            frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            g_frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            stage = LtiStage(
                F=frame * np.geomspace(1.0, 1.0 / cond, d),
                G=g_frame * rng.uniform(0.5, 1.0, d),
                input_set=random_ellipsoid(rng, d, -0.5, 0.5),
            )
            x = random_ellipsoid(rng, d, -0.5, 0.5)
            for propagate, m, n in (
                (propagate_forward, stage.F, stage.G),
                (propagate_backward, np.linalg.inv(stage.F), -np.linalg.inv(stage.F) @ stage.G),
            ):
                expected = self.reference_log_volume(m @ x.shape @ m.T, n @ stage.input_set.shape @ n.T)
                got = one_step(propagate, x, stage, eps=0.0).log_volume()
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-10


class TestStepsDoNotValidate:
    def test_input_images_and_steps_validate_nothing(self, monkeypatch):
        from ellipsum import linalg

        calls = {"construct": 0, "symmetrize": 0}
        construct, symmetrize = Ellipsoid.__post_init__, linalg.symmetrize

        def counting_construct(self):
            calls["construct"] += 1
            construct(self)

        def counting_symmetrize(m):
            calls["symmetrize"] += 1
            return symmetrize(m)

        rng = np.random.default_rng(1320)
        x0 = random_ellipsoid(rng, 4)
        forward = [tall_stage(rng, 4, 2, 0.5, 0.9) for _ in range(50)]
        backward = [tall_stage(rng, 4, 2, 1.1, 2.0) for _ in range(50)]
        monkeypatch.setattr(Ellipsoid, "__post_init__", counting_construct)
        monkeypatch.setattr(linalg, "symmetrize", counting_symmetrize)
        for stage in forward:
            stage._chain_step(1e-9, False)
        for stage in backward:
            stage._chain_step(1e-9, True)
        propagate_forward(x0, forward, eps=1e-9)
        propagate_backward(x0, backward, eps=1e-9)
        assert calls == {"construct": 0, "symmetrize": 0}

    def test_steps_factor_only_their_output(self, monkeypatch):
        # the mapped state is never factored: one Cholesky per step, of the
        # step's outer shape, once the stages' input images are factored
        from ellipsum import linalg

        rng = np.random.default_rng(1321)
        x0 = random_ellipsoid(rng, 4)
        forward = [tall_stage(rng, 4, 2, 0.5, 0.9) for _ in range(5)] * 4
        backward = [tall_stage(rng, 4, 2, 1.1, 2.0) for _ in range(5)] * 4
        propagate_forward(x0, forward, eps=1e-9)
        propagate_backward(x0, backward, eps=1e-9)
        calls = []
        cholesky = linalg._cholesky
        monkeypatch.setattr(linalg, "_cholesky", lambda m: calls.append(m.shape) or cholesky(m))
        propagate_forward(x0, forward, eps=1e-9)
        propagate_backward(x0, backward, eps=1e-9)
        assert len(calls) == len(forward) + len(backward)
