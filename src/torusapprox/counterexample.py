"""Block construction showing that divergence alone cannot force full
measure once the target is allowed to move with q.

Each block j picks consecutive primes past everything used so far, with
product P_j squarefree and totient density phi(P_j)/P_j below the block's
eps_j.  The block support is every divisor q > 1 of P_j, weighted
psi(q) = q / (2 P_j), and the target shift places the centers of each
approximation set on reduced fractions with denominator P_j:

    y_q / q  is a reduced fraction with denominator P_j / q.

All centers then lie on the P_j-th reduced residues, so the whole block
union sits inside those points thickened by 1/(2 P_j) and has measure
exactly phi(P_j)/P_j, while the normalized weight sum over the block is
(P_j - 1) / (2 P_j), bounded below by 1/4 per block.  Small block measures
with divergent weight sums is the whole point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .approx import _PIECE_CAP, build_approx_set, coprime_residues
from .arith import is_prime, primes_for_epsilon, DEFAULT_PRIME_RUN_CAP, PRIME_TEST_LIMIT
from .errors import BudgetError, IdentityError
from .rationals import format_rational, parse_rational
from .torus import TorusIntervalSet

DEFAULT_DIVISOR_CAP = 1 << 16
DEFAULT_PIECE_CAP = _PIECE_CAP


@dataclass(frozen=True)
class BlockSchedule:
    """How many blocks to build and how aggressively.

    eps defaults to eps_j = 2**-j.  In "product" mode block j starts at
    the smallest prime exceeding the previous block product P_{j-1};
    "prime" mode starts just past the largest prime used so far, which
    keeps later blocks reachable at small scale while preserving the only
    property used downstream, disjointness of the blocks' prime sets.
    """

    blocks: int
    eps: tuple[Fraction, ...] | None = None
    mode: str = "product"
    prime_run_cap: int = DEFAULT_PRIME_RUN_CAP
    divisor_cap: int = DEFAULT_DIVISOR_CAP

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("need at least one block")
        if self.mode not in ("product", "prime"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.eps is not None:
            eps = tuple(Fraction(e) for e in self.eps)
            if len(eps) != self.blocks:
                raise ValueError("eps sequence length must equal the block count")
            if any(not 0 < e <= 1 for e in eps):
                raise ValueError("eps values must lie in (0, 1]")
            object.__setattr__(self, "eps", eps)

    def eps_for(self, j: int) -> Fraction:
        if self.eps is not None:
            return self.eps[j - 1]
        return Fraction(1, 2**j)


@dataclass
class Block:
    index: int
    primes: tuple[int, ...]
    P: int
    eps: Fraction
    density: Fraction  # phi(P)/P
    divisor_count: int
    divisors: tuple[int, ...] | None  # None when past the materialization cap


@dataclass
class CounterexampleInstance:
    """A fully explicit instance: blocks, weights, shifts, residue choices.

    psi, y and residue are materialized maps for every block whose divisor
    list fits the cap; the accessor methods also answer for deferred blocks.
    """

    mode: str
    blocks: list[Block]
    psi: dict[int, Fraction] = field(default_factory=dict)
    y: dict[int, Fraction] = field(default_factory=dict)
    residue: dict[int, int] = field(default_factory=dict)

    def block(self, j: int) -> Block:
        if not 1 <= j <= len(self.blocks):
            raise ValueError(f"block index {j} out of range")
        return self.blocks[j - 1]

    def block_of(self, q: int) -> int | None:
        """Index of the block whose support contains q, if any."""
        if q <= 1:
            return None
        for blk in self.blocks:
            if blk.P % q == 0:
                return blk.index
        return None

    def psi_of(self, q: int) -> Fraction:
        if q in self.psi:
            return self.psi[q]
        j = self.block_of(q)
        if j is None:
            return Fraction(0)
        return Fraction(q, 2 * self.blocks[j - 1].P)

    def y_of(self, q: int) -> Fraction:
        """Target shift; 0 off the support, where nothing depends on it."""
        if q in self.y:
            return self.y[q]
        j = self.block_of(q)
        if j is None:
            return Fraction(0)
        cofactor = self.blocks[j - 1].P // q
        a = 1 if cofactor > 1 else 0
        return Fraction(q * a, cofactor)

    def validate(self) -> None:
        # prime disjointness across blocks first: a reused prime makes the
        # later per-q maps ambiguous, so report it as the root cause
        seen: set[int] = set()
        for blk in self.blocks:
            product = 1
            for p in blk.primes:
                if not is_prime(p):
                    raise ValueError(f"block {blk.index}: {p} is not prime")
                if p in seen:
                    raise ValueError(f"block {blk.index}: prime {p} reused")
                seen.add(p)
                product *= p
            if product != blk.P:
                raise ValueError(f"block {blk.index}: P does not match its primes")
            if not blk.density < blk.eps:
                raise ValueError(
                    f"block {blk.index}: density {blk.density} not below eps {blk.eps}"
                )
        for blk in self.blocks:
            if blk.divisors is not None:
                if len(blk.divisors) != blk.divisor_count:
                    raise ValueError(f"block {blk.index}: divisor count mismatch")
                for q in blk.divisors:
                    if q <= 1 or blk.P % q != 0:
                        raise ValueError(f"block {blk.index}: bad divisor {q}")
                    if self.psi[q] != Fraction(q, 2 * blk.P):
                        raise ValueError(f"psi({q}) is not q/(2P)")
                    cofactor = blk.P // q
                    a = self.residue[q]
                    if cofactor == 1:
                        if a != 0:
                            raise ValueError(f"residue for q = P must be 0, got {a}")
                    elif not (0 <= a < cofactor and math.gcd(a, cofactor) == 1):
                        raise ValueError(
                            f"residue {a} for q={q} is not reduced mod {cofactor}"
                        )
                    if self.y[q] != Fraction(q * a, cofactor):
                        raise ValueError(f"y({q}) does not match its residue choice")

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        blocks = []
        for blk in self.blocks:
            entry = {
                "index": blk.index,
                "primes": list(blk.primes),
                "P": blk.P,
                "eps": format_rational(blk.eps),
                "density": format_rational(blk.density),
                "divisor_count": blk.divisor_count,
                "divisors": list(blk.divisors) if blk.divisors is not None else None,
            }
            if blk.divisors is not None:
                entry["psi"] = {str(q): format_rational(self.psi[q]) for q in blk.divisors}
                entry["y"] = {str(q): format_rational(self.y[q]) for q in blk.divisors}
                entry["residue"] = {str(q): self.residue[q] for q in blk.divisors}
            blocks.append(entry)
        return {"mode": self.mode, "blocks": blocks}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CounterexampleInstance":
        inst = cls(mode=obj["mode"], blocks=[])
        for entry in obj["blocks"]:
            divisors = entry["divisors"]
            blk = Block(
                index=entry["index"],
                primes=tuple(entry["primes"]),
                P=entry["P"],
                eps=parse_rational(entry["eps"]),
                density=parse_rational(entry["density"]),
                divisor_count=entry["divisor_count"],
                divisors=tuple(divisors) if divisors is not None else None,
            )
            inst.blocks.append(blk)
            if divisors is not None:
                for q_str, value in entry["psi"].items():
                    inst.psi[int(q_str)] = parse_rational(value)
                for q_str, value in entry["y"].items():
                    inst.y[int(q_str)] = parse_rational(value)
                for q_str, value in entry["residue"].items():
                    inst.residue[int(q_str)] = int(value)
        inst.validate()
        return inst

    @classmethod
    def from_json(cls, text: str) -> "CounterexampleInstance":
        return cls.from_json_obj(json.loads(text))

    def save(self, path) -> None:
        _write_atomic(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "CounterexampleInstance":
        with open(path) as handle:
            return cls.from_json(handle.read())


def _write_atomic(path, text: str) -> None:
    """Write text to path through a temp file in path's directory and
    os.replace, so a write that fails part-way leaves no partial file and
    any file already at path intact.  The CLI's --out reports use it too."""
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    handle = open(temp, "x")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _squarefree_divisors_with_totients(primes) -> list[tuple[int, int]]:
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(d * p, f * (p - 1)) for d, f in divisors]
    return divisors


def _populate_block(
    inst: CounterexampleInstance,
    index: int,
    primes: tuple[int, ...],
    eps: Fraction,
    divisor_cap: int,
    residue_override=None,
) -> None:
    P = 1
    phi = 1
    for p in primes:
        P *= p
        phi *= p - 1
    density = Fraction(phi, P)
    count = 2 ** len(primes) - 1
    if count > divisor_cap:
        inst.blocks.append(Block(index, primes, P, eps, density, count, None))
        return
    pairs = _squarefree_divisors_with_totients(primes)
    divisors = tuple(sorted(d for d, _ in pairs if d > 1))
    inst.blocks.append(Block(index, primes, P, eps, density, count, divisors))
    for q in divisors:
        cofactor = P // q
        if residue_override and q in residue_override:
            a = residue_override[q]
        else:
            a = 1 if cofactor > 1 else 0
        inst.psi[q] = Fraction(q, 2 * P)
        inst.residue[q] = a
        inst.y[q] = Fraction(q * a, cofactor)


def build_counterexample(
    schedule: BlockSchedule, residue_override: dict[int, int] | None = None
) -> CounterexampleInstance:
    """Build an instance block by block according to the schedule.

    Residue choices default to numerator 1 (0 when the cofactor is 1);
    every verified property is choice-independent, so overrides are for
    exploration only.
    """
    inst = CounterexampleInstance(mode=schedule.mode, blocks=[])
    previous_P = 1
    largest_prime = 1
    for j in range(1, schedule.blocks + 1):
        start = previous_P if schedule.mode == "product" else largest_prime
        if start >= PRIME_TEST_LIMIT:
            raise BudgetError(
                f"block {j}: starting point {start} is past the 64-bit prime range"
            )
        try:
            primes, _ = primes_for_epsilon(
                start, schedule.eps_for(j), max_run=schedule.prime_run_cap
            )
        except BudgetError as exc:
            raise BudgetError(f"block {j}: {exc}") from exc
        _populate_block(
            inst, j, tuple(primes), schedule.eps_for(j), schedule.divisor_cap,
            residue_override,
        )
        previous_P = inst.blocks[-1].P
        largest_prime = primes[-1]
    inst.validate()
    return inst


def instance_from_prime_blocks(
    prime_blocks, eps=None, divisor_cap: int = DEFAULT_DIVISOR_CAP,
    residue_override: dict[int, int] | None = None,
) -> CounterexampleInstance:
    """Build an instance from explicit prime lists, one list per block.

    eps defaults to 1 for every block, which any product of primes beats.
    """
    inst = CounterexampleInstance(mode="explicit", blocks=[])
    for j, primes in enumerate(prime_blocks, start=1):
        primes = tuple(sorted(int(p) for p in primes))
        if len(set(primes)) != len(primes):
            raise ValueError(f"block {j}: repeated prime")
        block_eps = Fraction(1) if eps is None else Fraction(eps[j - 1])
        _populate_block(inst, j, primes, block_eps, divisor_cap, residue_override)
    inst.validate()
    return inst


def block_union_set(
    inst: CounterexampleInstance, j: int, piece_cap: int = DEFAULT_PIECE_CAP
) -> TorusIntervalSet:
    """Exact union of the approximation sets over block j's support."""
    blk = inst.block(j)
    if blk.divisors is None:
        raise BudgetError(
            f"block {j}: {blk.divisor_count} divisors exceed the materialization cap"
        )
    pieces_needed = blk.density.numerator * (blk.P // blk.density.denominator)
    if pieces_needed > piece_cap:
        raise BudgetError(
            f"block {j}: union needs {pieces_needed} pieces, cap is {piece_cap}"
        )
    sets = [build_approx_set(q, inst.psi_of(q), inst.y_of(q)) for q in blk.divisors]
    return TorusIntervalSet.empty().union(*sets)


def verify_containment(
    inst: CounterexampleInstance, j: int, piece_cap: int = DEFAULT_PIECE_CAP
) -> bool:
    """Exact check that block j's union sits inside the thickened reduced
    residues of P_j (radius 1/(2 P_j), half-open)."""
    blk = inst.block(j)
    union = block_union_set(inst, j, piece_cap)
    # [a/P - 1/(2P), a/P + 1/(2P)) in units of 1/(2P).
    thickened = TorusIntervalSet.from_spans(
        2 * blk.P, [(2 * a - 1, 2 * a + 1) for a in coprime_residues(blk.P)]
    )
    return union.is_subset_of(thickened)


class BlockMeasure(NamedTuple):
    measure: Fraction
    bound: Fraction  # phi(P)/P
    ok: bool


def verify_block_measure(
    inst: CounterexampleInstance, j: int, piece_cap: int = DEFAULT_PIECE_CAP
) -> BlockMeasure:
    """Exact block union measure against phi(P_j)/P_j and eps_j."""
    blk = inst.block(j)
    measure = block_union_set(inst, j, piece_cap).measure()
    bound = blk.density
    return BlockMeasure(measure=measure, bound=bound, ok=measure <= bound < blk.eps)


def divergence_partial_sum(inst: CounterexampleInstance, upto: int) -> Fraction:
    """Exact sum of phi(q) psi(q) / q over the first `upto` blocks.

    Computed term by term whenever the block is materialized and checked
    against the closed form (P_j - 1) / (2 P_j); deferred blocks use the
    closed form, which the divisor-sum identity sum_{q | P} phi(q) = P
    makes exact.
    """
    if not 0 <= upto <= len(inst.blocks):
        raise ValueError(f"block count {upto} out of range")
    total = Fraction(0)
    for blk in inst.blocks[:upto]:
        closed = Fraction(blk.P - 1, 2 * blk.P)
        if blk.divisors is not None:
            brute = Fraction(0)
            for q, phi_q in _squarefree_divisors_with_totients(blk.primes):
                if q > 1:
                    brute += Fraction(phi_q, q) * inst.psi_of(q)
            if brute != closed:
                raise IdentityError(
                    f"block {blk.index}: divergence sum {brute} != (P-1)/(2P) = {closed}"
                )
        total += closed
    return total
