#!/usr/bin/env python3
"""Digest of the solver's outputs, to show that a change leaves them bit-identical.

Runs every pair step of the benchmark's fold problem sets (fold_small,
pair_large and cli_check) and its forward and backward reach tubes for the
given seeds, then a seeded suite of random folds in d = 1..12 under every
method, each with an affine image, and a seeded set of single-summand folds
(K = 1, d = 1..12) under every method, whose digest also takes each
result's ``method`` string. The check section runs ``ellipsum check``
in process on each seed's cli_check problem sets and on two claims about a
pair of the first seed's: the solver's own outer ellipsoid with its beta,
which passes, and that ellipsoid shrunk by 1 %, which fails; the problem
files go to a temporary directory. It prints one SHA-256 over the bytes of
every output's center, shape and factor, every step's beta, iteration
count and residual and every check's stdout and exit code, then one line
per section (fold_small, pair_large, cli_check, reach_tube, check, the
random suite and single_summand) with the SHA-256 of that section's share
of the same bytes, so a change that moves some outputs shows which
sections stayed bit-identical. Log-volumes stay out of the digest; ``--log-volumes`` saves
them to an .npy file for a separate comparison. Run it at two commits and
compare the lines:

    PYTHONPATH=src python scripts/output_digest.py --seeds 0 1 2

A change that moves outputs at roundoff shows in every hash, so
``--against FILE`` compares this run's log-volumes with a ``--log-volumes``
file saved at another commit with the same arguments: it prints, per
section, the largest |a - b| / max(1, |a|) with a from FILE, and exits 1
when the two runs' counts differ:

    PYTHONPATH=src python scripts/output_digest.py --log-volumes parent.npy   # at the parent
    PYTHONPATH=src python scripts/output_digest.py --against parent.npy       # at the change
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from ellipsum import Ellipsoid, LtiStage, SolverOptions, affine_image, mvoe_pair, mvoe_sum  # noqa: E402
from ellipsum import propagate_backward, propagate_forward  # noqa: E402
from ellipsum.cli import main as cli_main  # noqa: E402


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()
        self.log_volumes = []
        #: the section of each entry of ``log_volumes``
        self.volume_sections = []
        #: section name -> [its hash, its item count, the item kind], in first-use order
        self.sections = {}
        self.section = None

    def _update(self, data):
        self.hash.update(data)
        self.sections[self.section][0].update(data)

    def enter(self, name, kind="ellipsoids"):
        """Send what follows to section ``name`` as well as to the overall hash."""
        self.sections.setdefault(name, [hashlib.sha256(), 0, kind])
        self.section = name

    def ellipsoid(self, e):
        for array in (e.center, e.shape, e.factor):
            self._update(np.ascontiguousarray(array).tobytes())
        self.log_volumes.append(e.log_volume())
        self.volume_sections.append(self.section)
        self.sections[self.section][1] += 1

    def numbers(self, *values):
        self._update(np.array(values, dtype=float).tobytes())

    def fold(self, ellipsoids, opts=None):
        acc = ellipsoids[0]
        for nxt in ellipsoids[1:]:
            result = mvoe_pair(acc, nxt, opts)
            self.ellipsoid(result.ellipsoid)
            self.numbers(result.beta, result.iterations, result.residual)
            acc = result.ellipsoid
        result, betas = mvoe_sum(ellipsoids, opts)
        self.ellipsoid(result.ellipsoid)
        self.numbers(*betas, result.iterations, result.residual)

    def single(self, ellipsoid, opts):
        """Digest the K = 1 fold of ``ellipsoid`` and the method its result reports."""
        result, betas = mvoe_sum([ellipsoid], opts)
        self.ellipsoid(result.ellipsoid)
        self.numbers(*betas, result.beta, result.iterations, result.residual)
        self._update(result.method.encode())

    def check(self, path):
        """Digest the stdout and exit code of ``ellipsum check`` on ``path``."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["check", str(path)])
        self._update(f"{stdout.getvalue()}exit {code}\n".encode())
        self.sections[self.section][1] += 1

    def tube(self, raw, steps, eps, propagate):
        stage = LtiStage(raw["F"], raw["G"], Ellipsoid(raw["u_c"], raw["u_q"]))
        for e in propagate(Ellipsoid(raw["c0"], raw["q0"]), [stage] * steps, eps):
            self.ellipsoid(e)


def write_problem(path, ellipsoids, claim=None):
    problem = {"version": "1", "dimension": ellipsoids[0].dim, "ellipsoids": [e.to_dict() for e in ellipsoids]}
    if claim is not None:
        problem["claim"] = claim
    path.write_text(json.dumps(problem))
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="benchmark problem-set seeds")
    parser.add_argument("--folds", type=int, default=400, help="random folds in the seeded suite")
    parser.add_argument("--log-volumes", help="save every output's log-volume to this .npy file")
    parser.add_argument("--against", help="compare the log-volumes with this --log-volumes file of another commit")
    args = parser.parse_args()

    digest = Digest()
    reach = workloads.ReachTube()
    for seed in args.seeds:
        for workload in (workloads.FoldSmall(), workloads.PairLarge(), workloads.CliCheck(None)):
            digest.enter(workload.name)
            for centers, shapes in workload.generate(seed):
                digest.fold([Ellipsoid(c, q) for c, q in zip(centers, shapes)])
        digest.enter(reach.name)
        for fwd, bwd in reach.generate(seed):
            digest.tube(fwd, reach.steps, reach.eps_forward, propagate_forward)
            digest.tube(bwd, reach.steps, reach.eps_backward, propagate_backward)
    digest.enter("check", kind="runs")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for seed in args.seeds:
            for i, (centers, shapes) in enumerate(workloads.CliCheck(None).generate(seed)):
                ellipsoids = [Ellipsoid(c, q) for c, q in zip(centers, shapes)]
                digest.check(write_problem(workdir / f"cli_check_{seed}_{i}.json", ellipsoids))
        centers, shapes = workloads.CliCheck(None).generate(args.seeds[0])[0]
        pair = [Ellipsoid(c, q) for c, q in zip(centers[:2], shapes[:2])]
        result = mvoe_pair(*pair)
        outer = result.ellipsoid
        for name, shape in (("claim", outer.shape), ("shrunk_claim", 0.99 * outer.shape)):
            claim = {"ellipsoid": {"center": outer.center.tolist(), "shape": shape.tolist()}, "beta": result.beta}
            digest.check(write_problem(workdir / f"{name}.json", pair, claim))
    digest.enter("random_suite")
    rng = np.random.default_rng(2024)
    for k in range(args.folds):
        d = 1 + k % 12
        ellipsoids = [Ellipsoid(rng.normal(size=d), workloads._spd(rng, d, -3.0, 3.0)) for _ in range(2 + k % 3)]
        for method in ("auto", "fixed_point", "trace") + (("bisection",) if d == 2 else ()):
            digest.fold(ellipsoids, SolverOptions(method=method))
        digest.ellipsoid(affine_image(ellipsoids[0], rng.normal(size=(d, d))))
    digest.enter("single_summand")
    rng = np.random.default_rng(2025)
    for d in range(1, 13):
        ellipsoid = Ellipsoid(rng.normal(size=d), workloads._spd(rng, d, -3.0, 3.0))
        for method in ("auto", "bisection", "fixed_point", "trace"):
            digest.single(ellipsoid, SolverOptions(method=method))
    print(f"outputs {digest.hash.hexdigest()} ellipsoids {len(digest.log_volumes)}")
    for name, (section, count, kind) in digest.sections.items():
        print(f"  {name} {section.hexdigest()} {kind} {count}")
    if args.log_volumes:
        np.save(args.log_volumes, np.array(digest.log_volumes))
    if args.against:
        return compare(np.load(args.against), digest)
    return 0


def compare(reference, digest):
    """Print, per section, the largest relative log-volume difference from
    ``reference``; 1 when the counts differ, else 0."""
    ours = np.array(digest.log_volumes)
    if reference.shape != ours.shape:
        print(f"log-volume counts differ: {reference.shape[0]} in the file, {ours.shape[0]} here", file=sys.stderr)
        return 1
    sections = np.array(digest.volume_sections)
    relative = np.abs(reference - ours) / np.maximum(1.0, np.abs(reference))
    print(f"log-volumes against {reference.shape[0]} of the file: largest |a - b| / max(1, |a|)")
    for name in digest.sections:
        in_section = sections == name
        if in_section.any():
            print(f"  {name} {relative[in_section].max():.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
