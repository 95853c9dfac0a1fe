"""The four benchmark workloads: seeded problem sets, operations and
independent correctness checks.

Each workload has three parts that run at different times:

* ``generate(seed)`` draws the raw problem set with numpy only. It is the
  benchmark's own work and is excluded from ``setup_s``.
* ``build(raw)`` turns the raw arrays into the program's inputs (through
  ``Ellipsoid`` and ``LtiStage``, or by writing problem files) and returns
  one callable per operation. A pass over the problem set calls each of them
  once, in order.
* ``check(raw, outputs)`` runs after the timed phase. It recomputes what it
  needs with scipy and numpy from the raw arrays, never through the program,
  and returns a list of failure messages (empty when every output is right).
  An output of None marks a failed operation, which is counted, not checked.

The in-process workloads also have ``extract(output)``, which turns one
program output into plain arrays and floats, so that the checks (and the
negative-control tests) work on data the program no longer owns.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

#: relative agreement demanded between the program and the reference
#: computation for betas, shapes, centers and volumes. Observed agreement is
#: 1e-12 or better; a 1e-6 corruption must fail.
REF_RTOL = 1e-9

#: relative slack on sampled support functions for containment
SUPPORT_RTOL = 1e-9

#: sampled unit directions per containment check
CHECK_DIRECTIONS = 256


def _spd(rng, dim, log_lo=-1.0, log_hi=1.0):
    """SPD matrix with log-uniform eigenvalues in a random orthogonal frame."""
    eigs = 10.0 ** rng.uniform(log_lo, log_hi, dim)
    frame = _orthogonal(rng, dim)
    m = (frame * eigs) @ frame.T
    return 0.5 * (m + m.T)


def _orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diagonal(r))


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


# ---------------------------------------------------------------------------
# Reference computations (scipy and numpy only, never the program)


def ref_root(Q1, Q2):
    """Volume-optimal beta of the pair (Q1, Q2), found apart from the program.

    The spectrum of Q1^{-1} Q2 comes from the generalized symmetric
    eigensolver; the root of sum (1 - b^2 l)/(1 + b l) is found by Brent's
    method in t = log b over [l_max^{-1/2}, l_min^{-1/2}], which brackets it.
    """
    from scipy.linalg import eigh
    from scipy.optimize import brentq

    lam = eigh(Q2, Q1, eigvals_only=True)
    if lam[0] <= 0.0:
        raise ValueError("reference spectrum is not positive")

    def residual(t):
        b = math.exp(t)
        return float(np.sum((1.0 - b * b * lam) / (1.0 + b * lam)))

    lo, hi = -0.5 * math.log(lam[-1]), -0.5 * math.log(lam[0])
    f_lo, f_hi = residual(lo), residual(hi)
    if hi - lo <= 1e-15 * max(1.0, abs(lo)) or f_lo <= 0.0 or f_hi >= 0.0:
        # the bracket has collapsed onto the root (equal eigenvalues) or
        # roundoff puts an end point on the wrong side of it
        return math.exp(lo if abs(f_lo) <= abs(f_hi) else hi)
    return math.exp(brentq(residual, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200))


def q_member(Q1, Q2, beta):
    return (1.0 + 1.0 / beta) * Q1 + (1.0 + beta) * Q2


def log_volume(shape):
    """log of pi^(d/2) / Gamma(d/2 + 1) * sqrt(det shape)."""
    d = shape.shape[0]
    sign, logdet = np.linalg.slogdet(shape)
    if sign <= 0.0:
        return -math.inf
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + 0.5 * logdet


def directions(dim, count, seed):
    u = np.random.default_rng([seed, dim, 7]).normal(size=(count, dim))
    return u / np.linalg.norm(u, axis=1)[:, None]


def support(dirs, center, shape):
    quad = np.einsum("ij,jk,ik->i", dirs, shape, dirs)
    return dirs @ center + np.sqrt(np.maximum(quad, 0.0))


def _rel(a, b):
    """Relative Frobenius distance of a from b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (scale if scale > 0.0 else 1.0)


def check_containment(dirs, outer_center, outer_shape, parts, where):
    """Support of the outer set must cover the summed support of the parts.

    ``parts`` are (center, shape) pairs; the slack is relative to the summed
    magnitudes |u'c| + sqrt(u'Qu) of the parts.
    """
    total = np.zeros(dirs.shape[0])
    scale = np.zeros(dirs.shape[0])
    for c, q in parts:
        quad = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", dirs, q, dirs), 0.0))
        total += dirs @ c + quad
        scale += np.abs(dirs @ c) + quad
    excess = total - support(dirs, outer_center, outer_shape) - SUPPORT_RTOL * scale
    worst = float(np.max(excess))
    if worst > 0.0:
        return [f"{where}: sampled support misses the Minkowski sum by {worst:.3e}"]
    return []


def check_fold(centers, shapes, out, where):
    """Compare one fold (K >= 2) with a left fold built on reference roots.

    ``out`` holds the program's ``betas``, final ``center``, ``shape`` and
    ``volume``.
    """
    failures = []
    acc, c = shapes[0], centers[0]
    ref_betas = []
    for q, qc in zip(shapes[1:], centers[1:]):
        b = ref_root(acc, q)
        ref_betas.append(b)
        acc, c = q_member(acc, q, b), c + qc
    betas = np.asarray(out["betas"], dtype=float)
    if betas.shape != (len(ref_betas),):
        return [f"{where}: {betas.shape[0]} betas for {len(ref_betas)} pair steps"]
    beta_err = float(np.max(np.abs(betas - ref_betas) / np.asarray(ref_betas)))
    if not beta_err <= REF_RTOL:
        failures.append(f"{where}: beta differs from the reference root by {beta_err:.3e} relative")
    shape_err = _rel(out["shape"], acc)
    if not shape_err <= REF_RTOL:
        failures.append(f"{where}: shape differs from the reference fold by {shape_err:.3e} relative")
    center_scale = sum(float(np.linalg.norm(x)) for x in centers)
    center_err = float(np.linalg.norm(np.asarray(out["center"]) - c)) / center_scale
    if not center_err <= REF_RTOL:
        failures.append(f"{where}: center differs from the sum of centers by {center_err:.3e} relative")
    volume = float(out["volume"])
    vol_err = abs(math.log(volume) - log_volume(acc)) if volume > 0.0 and math.isfinite(volume) else math.inf
    if not vol_err <= REF_RTOL:
        failures.append(f"{where}: volume differs from the reference by {vol_err:.3e} relative")
    dirs = directions(len(centers[0]), CHECK_DIRECTIONS, len(shapes))
    failures += check_containment(dirs, out["center"], out["shape"], list(zip(centers, shapes)), where)
    return failures


def check_step(dirs, state, mapping, input_c, input_q, eps, nxt, where):
    """One reach step: ``nxt`` must contain M.state (+) G.U, have the volume of
    the reference member, and not exceed the trace-parameter member.

    ``mapping`` is (F, G) forward or (F^{-1}, -F^{-1} G) backward; ``eps``
    lifts G U G' exactly as the documented regularization does.
    """
    f, g = mapping
    a_c, a_q = f @ state[0], f @ state[1] @ f.T
    a_q = 0.5 * (a_q + a_q.T)
    b_c, b_q = g @ input_c, g @ input_q @ g.T
    b_q = 0.5 * (b_q + b_q.T)
    b_lift = b_q + eps * max(float(np.trace(b_q)) / b_q.shape[0], 1.0) * np.eye(b_q.shape[0])
    failures = check_containment(dirs, nxt[0], nxt[1], [(a_c, a_q), (b_c, b_q)], where)
    ref = log_volume(q_member(a_q, b_lift, ref_root(a_q, b_lift)))
    beta_trace = math.sqrt(float(np.trace(a_q)) / float(np.trace(b_lift)))
    trace_member = log_volume(q_member(a_q, b_lift, beta_trace))
    got = log_volume(nxt[1])
    if not abs(got - ref) <= REF_RTOL:
        failures.append(f"{where}: volume differs from the reference member by {abs(got - ref):.3e} relative")
    if not got <= trace_member + REF_RTOL:
        failures.append(f"{where}: volume exceeds the trace-parameter member by {got - trace_member:.3e}")
    center_err = float(np.linalg.norm(nxt[0] - (a_c + b_c)))
    center_scale = float(np.linalg.norm(a_c)) + float(np.linalg.norm(b_c)) + 1e-300
    if not center_err <= REF_RTOL * center_scale:
        failures.append(f"{where}: center differs from the mapped centers by {center_err:.3e}")
    return failures


def exact_tube_support(dirs, c0, q0, f, g, u_c, u_q, steps):
    """Support of the exact linear tube after ``steps`` steps of x+ = f x + g u:

    h(u) = u'c_N + ||Q0^{1/2} f'^N u|| + sum_k ||U^{1/2} g' f'^k u||.
    """
    v = dirs.T.copy()
    total = np.zeros(dirs.shape[0])
    center = np.zeros_like(c0)
    for _ in range(steps):
        gv = g.T @ v
        total += np.sqrt(np.maximum(np.einsum("ij,ik,kj->j", gv, u_q, gv), 0.0))
        v = f.T @ v
        center = f @ center + g @ u_c
    center = center + np.linalg.matrix_power(f, steps) @ c0
    total += np.sqrt(np.maximum(np.einsum("ij,ik,kj->j", v, q0, v), 0.0))
    return dirs @ center + total


def check_tube(tube, c0, q0, f, g, u_c, u_q, eps, where):
    """Every step of one tube, then its final set against the exact tube."""
    dirs = directions(q0.shape[0], CHECK_DIRECTIONS, len(tube))
    failures = []
    if not (np.array_equal(tube[0][0], c0) and np.array_equal(tube[0][1], q0)):
        failures.append(f"{where}: tube does not start at the given set")
    for k in range(len(tube) - 1):
        failures += check_step(dirs, tube[k], (f, g), u_c, u_q, eps, tube[k + 1], f"{where} step {k + 1}")
    steps = len(tube) - 1
    exact = exact_tube_support(dirs, c0, q0, f, g, u_c, u_q, steps)
    scale = np.abs(exact) + 1.0
    short = float(np.max(exact - support(dirs, *tube[-1]) - SUPPORT_RTOL * scale))
    if short > 0.0:
        failures.append(f"{where}: final set falls short of the exact tube support by {short:.3e}")
    return failures


# ---------------------------------------------------------------------------
# Workloads


class FoldSmall:
    """K = 8 left folds of planar ellipses, the shape of criterion 9."""

    name = "fold_small"
    salt = 1
    problems, k, dim = 32, 8, 2

    def generate(self, seed):
        rng = _rng(seed, self.salt)
        return [
            ([rng.normal(size=self.dim) for _ in range(self.k)], [_spd(rng, self.dim) for _ in range(self.k)])
            for _ in range(self.problems)
        ]

    def build(self, raw):
        import ellipsum

        # the operations look the solver up at call time, so traced runs see
        # the wrapped function
        parts = [[ellipsum.Ellipsoid(c, q) for c, q in zip(cs, qs)] for cs, qs in raw]
        return [lambda p=p: ellipsum.mvoe_sum(p) for p in parts]

    @staticmethod
    def extract(output):
        result, betas = output
        e = result.ellipsoid
        return {"betas": list(betas), "center": np.array(e.center), "shape": np.array(e.shape), "volume": result.volume}

    def check(self, raw, outputs):
        failures = []
        for i, ((cs, qs), out) in enumerate(zip(raw, outputs)):
            if out is None:  # a failed operation is counted, not checked
                continue
            failures += check_fold(cs, qs, self.extract(out), f"{self.name}[{i}]")
        return failures


class PairLarge(FoldSmall):
    """One pair solve at d = 200: cubic linear algebra dominates."""

    name = "pair_large"
    salt = 2
    problems, k, dim = 6, 2, 200

    def build(self, raw):
        import ellipsum

        pairs = [[ellipsum.Ellipsoid(c, q) for c, q in zip(cs, qs)] for cs, qs in raw]
        return [lambda p=p: ellipsum.mvoe_pair(*p) for p in pairs]

    @staticmethod
    def extract(output):
        e = output.ellipsoid
        return {"betas": [output.beta], "center": np.array(e.center), "shape": np.array(e.shape), "volume": output.volume}


class ReachTube:
    """A 100-step forward tube (stable F, tall G, eps lift) plus a 100-step
    backward tube (well-conditioned invertible F) at d = 6."""

    name = "reach_tube"
    salt = 3
    problems, dim, inputs, steps = 4, 6, 2, 100
    eps_forward, eps_backward = 1e-9, 0.0

    def generate(self, seed):
        rng = _rng(seed, self.salt)
        d, m = self.dim, self.inputs
        out = []
        for _ in range(self.problems):
            fwd = {
                "c0": rng.normal(size=d),
                "q0": _spd(rng, d),
                # spectral norm <= 0.9, so the forward tube stays bounded
                "F": _orthogonal(rng, d) * rng.uniform(0.5, 0.9, d),
                "G": rng.normal(size=(d, m)) / math.sqrt(d),
                "u_c": 0.1 * rng.normal(size=m),
                "u_q": _spd(rng, m),
            }
            bwd = {
                "c0": rng.normal(size=d),
                "q0": _spd(rng, d),
                # singular values in [1.1, 1.3]: F^{-1} contracts, cond(F) <= 1.19
                "F": _orthogonal(rng, d) * rng.uniform(1.1, 1.3, d),
                "G": _orthogonal(rng, d) * rng.uniform(0.5, 1.0, d),
                "u_c": 0.1 * rng.normal(size=d),
                "u_q": _spd(rng, d),
            }
            out.append((fwd, bwd))
        return out

    def build(self, raw):
        import ellipsum
        from ellipsum import Ellipsoid, LtiStage

        ops = []
        for fwd, bwd in raw:
            x0 = Ellipsoid(fwd["c0"], fwd["q0"])
            sf = LtiStage(fwd["F"], fwd["G"], Ellipsoid(fwd["u_c"], fwd["u_q"]))
            x1 = Ellipsoid(bwd["c0"], bwd["q0"])
            sb = LtiStage(bwd["F"], bwd["G"], Ellipsoid(bwd["u_c"], bwd["u_q"]))
            stages_f, stages_b = [sf] * self.steps, [sb] * self.steps

            def op(x0=x0, x1=x1, stages_f=stages_f, stages_b=stages_b):
                return (
                    ellipsum.propagate_forward(x0, stages_f, self.eps_forward),
                    ellipsum.propagate_backward(x1, stages_b, self.eps_backward),
                )

            ops.append(op)
        return ops

    @staticmethod
    def extract(output):
        return [[(np.array(e.center), np.array(e.shape)) for e in tube] for tube in output]

    def check(self, raw, outputs):
        failures = []
        for i, ((fwd, bwd), out) in enumerate(zip(raw, outputs)):
            if out is None:
                continue
            tube_f, tube_b = self.extract(out)
            failures += check_tube(
                tube_f, fwd["c0"], fwd["q0"], fwd["F"], fwd["G"], fwd["u_c"], fwd["u_q"],
                self.eps_forward, f"{self.name}[{i}] forward",
            )
            f_inv = np.linalg.inv(bwd["F"])
            failures += check_tube(
                tube_b, bwd["c0"], bwd["q0"], f_inv, -f_inv @ bwd["G"], bwd["u_c"], bwd["u_q"],
                self.eps_backward, f"{self.name}[{i}] backward",
            )
        return failures


class CliCheck:
    """One ``python -m ellipsum.cli check <problem>`` process per operation."""

    name = "cli_check"
    salt = 4
    problems, k, dim = 2, 16, 6

    def __init__(self, workdir, in_process=False):
        self.workdir = workdir
        self.in_process = in_process

    def generate(self, seed):
        rng = _rng(seed, self.salt)
        return [
            ([rng.normal(size=self.dim) for _ in range(self.k)], [_spd(rng, self.dim) for _ in range(self.k)])
            for _ in range(self.problems)
        ]

    def build(self, raw):
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for i, (cs, qs) in enumerate(raw):
            path = os.path.join(self.workdir, f"problem_{i}.json")
            problem = {
                "version": "1",
                "dimension": self.dim,
                "ellipsoids": [{"center": c.tolist(), "shape": q.tolist()} for c, q in zip(cs, qs)],
            }
            with open(path, "w") as handle:
                json.dump(problem, handle)
            ops.append(self._in_process_op(path) if self.in_process else self._process_op(path))
        return ops

    @staticmethod
    def _process_op(path):
        argv = [sys.executable, "-m", "ellipsum.cli", "check", path]

        def op():
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"ellipsum check exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.returncode, proc.stdout

        return op

    @staticmethod
    def _in_process_op(path):
        import contextlib
        import io

        from ellipsum import cli

        def op():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["check", path])
            if code != 0:
                raise RuntimeError(f"ellipsum check returned {code}")
            return code, buffer.getvalue()

        return op

    def check(self, raw, outputs):
        failures = []
        for i, ((cs, _), out) in enumerate(zip(raw, outputs)):
            if out is None:
                continue
            failures += check_cli_output(out, len(cs), f"{self.name}[{i}]")
        return failures


def check_cli_output(output, k, where):
    """``ellipsum check`` must exit 0 and print a passing report with one
    containment report and three reports per pair step."""
    code, stdout = output
    if code != 0:
        return [f"{where}: exit code {code}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{where}: report is not JSON ({exc})"]
    if payload.get("passed") is not True:
        return [f"{where}: report says passed = {payload.get('passed')!r}"]
    reports = payload.get("reports", [])
    if len(reports) != 1 + 3 * (k - 1):
        return [f"{where}: {len(reports)} reports for K = {k}, expected {1 + 3 * (k - 1)}"]
    return []
