"""The benchmark's workloads: inputs made from the seed, one timed pass
through torusapprox's public entry points, and the oracle that checks a
pass's output outside the timed region, independently of the timed path.

quasi-ladder      The paper's experiment, through the CLI in-process: the
                  exact m = 3 pairwise scan at Q = 256 (one worker), then
                  the main-term ladder 64,128,256.  Time goes to the scan's
                  pair loop and its Fraction accumulation (the pair sum's
                  denominator has 324 digits).  Seed-free.
moving-enclosure  Enclosure-mode scan (128 bits), m = 1, psi = 1/4,
                  Q = 384, two worker processes, with a seeded target y_q
                  per q.  The sets are dense, so the interval merge
                  dominates; accumulation is integer dyadic units, so this
                  workload bypasses Fraction accumulation.
verify-reduced    The verification checks at reduced size: the Fraction-
                  heavy torus/approx/overlap/arith path the scans barely
                  touch.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no torusapprox sources to benchmark."""


def import_program(submodules=()):
    """Import torusapprox (and the given submodules) from this checkout."""
    if not (SRC / "torusapprox" / "__init__.py").is_file():
        raise MissingProgram(f"no torusapprox package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("torusapprox")
    if Path(pkg.__file__).resolve().parent != SRC / "torusapprox":
        raise MissingProgram(f"torusapprox was imported from {pkg.__file__}, not {SRC}")
    for name in submodules:
        importlib.import_module(f"torusapprox.{name}")
    return pkg


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One workload: `inputs` makes a pass's inputs from the seed and `run`
    is the timed pass.  `check` returns the problems in a pass's output right
    after the pass; `final_check` does the same for the costlier checks,
    after every pass of the run has been timed."""

    name = ""
    submodules: tuple[str, ...] = ()

    def report_bytes(self, output) -> int:
        return 0

    def final_check(self, pkg, output, seed: int) -> list[str]:
        return []


# -- quasi-ladder ---------------------------------------------------------------


class QuasiLadder(Workload):
    name = "quasi-ladder"
    submodules = ("cli",)
    commands = (
        ("pairwise", "--Q", "256", "--m", "3", "--psi", "div3", "--y", "zero"),
        ("msum", "--ladder", "64,128,256", "--m", "3", "--psi", "div3"),
    )

    def inputs(self, pkg, seed: int):
        return [list(argv) for argv in self.commands]

    def run(self, pkg, inputs):
        """Exit code and report text of each command."""
        reports = []
        for argv in inputs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pkg.cli.run(argv)
            reports.append((code, out.getvalue()))
        return reports

    def report_bytes(self, output) -> int:
        return sum(len(text.encode()) for _, text in output)

    def check(self, output, inputs) -> list[str]:
        problems = [f"{argv[0]} exited {code}"
                    for argv, (code, _) in zip(inputs, output) if code != 0]
        if problems:
            return problems
        baselines = json.loads((SRC / "torusapprox" / "baselines.json").read_text())
        expected = Fraction(*map(int, baselines["quasi_ladder"]["256"].split("/")))
        lines = output[0][1].splitlines()
        columns = lines[-2].split(",")
        ratio = Fraction(*map(int, lines[-1].split(",")[columns.index("ratio")].split("/")))
        if ratio != expected:
            problems.append("pairwise ratio differs from baselines.json quasi_ladder[256]")
        digests = _reference()["quasi-ladder"]
        for argv, (_, text) in zip(inputs, output):
            if _sha256(text) != digests[argv[0]]:
                problems.append(f"{argv[0]} report differs from the reference digest")
        return problems


# -- moving-enclosure -----------------------------------------------------------------


def _totient(n: int) -> int:
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def exact_pair_sum(pkg, psi: Fraction, targets) -> Fraction:
    """Exact sum over ordered pairs q != r of |S_q & S_r|, by a coverage
    sweep: with N(x) the number of sets S_q holding x, the sum over
    unordered pairs is the integral of N(x)(N(x)-1)/2.  It shares no code
    with the scan's pair loop and costs one sort instead of Q**2/2 merges."""
    events = []
    for q, y in enumerate(targets, start=1):
        for lo, hi in pkg.approx.build_approx_set(q, psi, y).pieces:
            events.append((lo, 1))
            events.append((hi, -1))
    events.sort()
    total = Fraction(0)
    depth = 0
    previous = Fraction(0)
    for x, step in events:
        if depth >= 2:
            total += (x - previous) * (depth * (depth - 1) // 2)
        depth += step
        previous = x
    return 2 * total


class MovingEnclosure(Workload):
    name = "moving-enclosure"
    Q = 384
    psi = Fraction(1, 4)
    precision = 128
    workers = 2

    def __init__(self):
        self._exact: dict[int, Fraction] = {}

    def targets(self, seed: int) -> list[Fraction]:
        rng = random.Random(seed)
        return [Fraction(rng.randint(0, 63), rng.randint(1, 64)) for _ in range(self.Q)]

    def inputs(self, pkg, seed: int):
        targets = self.targets(seed)
        table = {q: (y,) for q, y in enumerate(targets, start=1)}
        return pkg.experiments.ExperimentConfig(
            Q=self.Q,
            psi=pkg.approx.ApproxFunction.constant(self.psi),
            target=pkg.approx.TargetSequence.from_table(table, 1),
            m=1,
            mode="enclosure",
            precision=self.precision,
            workers=self.workers,
        )

    def run(self, pkg, inputs):
        return pkg.experiments.pairwise_overlap_sum(inputs)

    def check(self, output, inputs) -> list[str]:
        problems = []
        closed_form = sum(Fraction(2 * _totient(q) * self.psi, q) for q in range(1, self.Q + 1))
        if output.measure_sum != closed_form:
            problems.append("measure_sum differs from sum 2 phi(q) psi / q")
        lo, hi = output.pair_sum
        # Each of the Q(Q-1)/2 pair terms widens the half sum by at most one
        # unit of 2**-precision; the pair sum doubles it.
        if not lo <= hi <= lo + Fraction(self.Q * (self.Q - 1), 2**self.precision):
            problems.append("enclosure is inverted or wider than outward rounding allows")
        square = closed_form**2
        if output.ratio != (lo / square, hi / square):
            problems.append("ratio bounds are not pair_sum / measure_sum**2")
        return problems

    def final_check(self, pkg, output, seed: int) -> list[str]:
        """The enclosure must contain the exact Fraction pair sum."""
        if seed not in self._exact:
            self._exact[seed] = exact_pair_sum(pkg, self.psi, self.targets(seed))
        lo, hi = output.pair_sum
        if not lo <= self._exact[seed] <= hi:
            return ["enclosure does not contain the exact Fraction pair sum"]
        return []


# -- verify-reduced ----------------------------------------------------------------------


class VerifyReduced(Workload):
    name = "verify-reduced"
    submodules = ("verification",)

    def inputs(self, pkg, seed: int):
        return [
            ("check_measure_law", {"limit": 250, "targets_per": 6, "seed": seed}),
            ("check_overlap_bound", {"limit": 80}),
            ("check_coprime_counts", {"limit": 40}),
            ("check_phigcd", {"limit_equal": 3000, "limit_ratio": 30000}),
            ("check_sifted_counts", {"trials": 3000, "seed": seed}),
            ("check_counterexample", {}),
            ("check_mc_calibration", {"samples": 20000, "seed": seed}),
        ]

    def run(self, pkg, inputs):
        return [getattr(pkg.verification, name)(**kwargs) for name, kwargs in inputs]

    def check(self, output, inputs) -> list[str]:
        return [result.line() for result in output if not result.ok]


WORKLOADS = {w.name: w for w in (QuasiLadder(), MovingEnclosure(), VerifyReduced())}


def setup(name: str, seed: int):
    """Import the program and make the workload's inputs: what setup_s times."""
    workload = WORKLOADS[name]
    pkg = import_program(workload.submodules)
    return pkg, workload.inputs(pkg, seed)
