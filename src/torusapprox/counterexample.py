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
from fractions import Fraction
from typing import NamedTuple

from .approx import _check_piece_cap, build_approx_set, coprime_residues
from .arith import is_prime, primes_for_epsilon, PRIME_TEST_LIMIT
from .errors import BudgetError, IdentityError
from .rationals import format_rational, parse_rational
from .torus import TorusIntervalSet

# Blocks with more divisors than this keep `divisors = None`; read at
# call time.
_DIVISOR_CAP = 1 << 16


class BlockSchedule:
    """How many blocks to build and how aggressively.

    eps defaults to eps_j = 2**-j.  In "product" mode block j starts at
    the smallest prime exceeding the previous block product P_{j-1};
    "prime" mode starts just past the largest prime used so far, which
    keeps later blocks reachable at small scale while preserving the only
    property used downstream, disjointness of the blocks' prime sets.
    """

    __slots__ = ("blocks", "eps", "mode")

    def __init__(self, blocks: int, eps: tuple[Fraction, ...] | None = None,
                 mode: str = "product"):
        if blocks < 1:
            raise ValueError("need at least one block")
        if mode not in ("product", "prime"):
            raise ValueError(f"unknown mode {mode!r}")
        if eps is not None:
            eps = tuple(Fraction(e) for e in eps)
            if len(eps) != blocks:
                raise ValueError("eps sequence length must equal the block count")
            if any(not 0 < e <= 1 for e in eps):
                raise ValueError("eps values must lie in (0, 1]")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("BlockSchedule is immutable")

    def eps_for(self, j: int) -> Fraction:
        if self.eps is not None:
            return self.eps[j - 1]
        return Fraction(1, 2**j)


class Block(NamedTuple):
    index: int
    primes: tuple[int, ...]
    P: int
    eps: Fraction
    density: Fraction  # phi(P)/P
    divisor_count: int
    divisors: tuple[int, ...] | None  # None when past the materialization cap


def _block(index: int, primes: tuple[int, ...], eps: Fraction) -> Block:
    """Block `index` over `primes`; every field but eps follows from them."""
    P = phi = 1
    for p in primes:
        P *= p
        phi *= p - 1
    count = 2 ** len(primes) - 1
    divisors = None
    if count <= _DIVISOR_CAP:
        divisors = tuple(sorted(d for d, _ in _squarefree_divisors_with_totients(primes) if d > 1))
    return Block(index, primes, P, eps, Fraction(phi, P), count, divisors)


class CounterexampleInstance:
    """A fully explicit instance: blocks and residue choices.

    On block j's support, psi(q) = q/(2P_j) and y_q = q*a/(P_j/q) for q's
    residue choice a.  `residue` holds the choices read from a file; every
    other q takes a = 1, or a = 0 when q = P_j.
    """

    __slots__ = ("mode", "blocks", "residue")

    def __init__(self, mode: str, blocks: list[Block]):
        self.mode = mode
        self.blocks = blocks
        self.residue: dict[int, int] = {}

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
        j = self.block_of(q)
        if j is None:
            return Fraction(0)
        return Fraction(q, 2 * self.blocks[j - 1].P)

    def y_of(self, q: int) -> Fraction:
        """Target shift; 0 off the support, where nothing depends on it."""
        j = self.block_of(q)
        if j is None:
            return Fraction(0)
        cofactor = self.blocks[j - 1].P // q
        return Fraction(q * self._residue(q, cofactor), cofactor)

    def _residue(self, q: int, cofactor: int) -> int:
        return self.residue.get(q, 1 if cofactor > 1 else 0)

    def validate(self) -> None:
        # prime disjointness across blocks first: a reused prime makes the
        # block of a q ambiguous, so report it as the root cause
        seen: set[int] = set()
        for blk in self.blocks:
            for p in blk.primes:
                if not is_prime(p):
                    raise ValueError(f"block {blk.index}: {p} is not prime")
                if p in seen:
                    raise ValueError(f"block {blk.index}: prime {p} reused")
                seen.add(p)
        for j, blk in enumerate(self.blocks, start=1):
            if blk != _block(j, blk.primes, blk.eps):
                raise ValueError(
                    f"block {blk.index}: index, P, density or divisors do not "
                    "follow from its primes"
                )
            if not blk.density < blk.eps:
                raise ValueError(
                    f"block {blk.index}: density {blk.density} not below eps {blk.eps}"
                )
        for q, a in self.residue.items():
            j = self.block_of(q)
            if j is None or self.blocks[j - 1].divisors is None:
                raise ValueError(f"residue for q={q}, outside every materialized block")
            cofactor = self.blocks[j - 1].P // q
            # The only residue mod 1 is 0, so this also fixes a = 0 at q = P.
            if type(a) is not int or not (0 <= a < cofactor and math.gcd(a, cofactor) == 1):
                raise ValueError(f"residue {a!r} for q={q} is not reduced mod {cofactor}")

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
                entry["psi"] = {str(q): format_rational(self.psi_of(q)) for q in blk.divisors}
                entry["y"] = {str(q): format_rational(self.y_of(q)) for q in blk.divisors}
                entry["residue"] = {str(q): self._residue(q, blk.P // q) for q in blk.divisors}
            blocks.append(entry)
        return {"mode": self.mode, "blocks": blocks}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_json_obj(cls, obj) -> "CounterexampleInstance":
        """The instance `to_json_obj` wrote.  Each materialized block's psi,
        y and residue maps must have exactly its divisors as keys, and psi
        and y must equal what the residues give; anything else raises
        ValueError."""
        try:
            inst = cls(mode=obj["mode"], blocks=[])
            entries = obj["blocks"]
            for entry in entries:
                divisors = entry["divisors"]
                inst.blocks.append(Block(
                    index=entry["index"],
                    primes=tuple(entry["primes"]),
                    P=entry["P"],
                    eps=parse_rational(entry["eps"]),
                    density=parse_rational(entry["density"]),
                    divisor_count=entry["divisor_count"],
                    divisors=tuple(divisors) if divisors is not None else None,
                ))
                keys = {str(q) for q in divisors or ()}
                for name in ("psi", "y", "residue"):
                    if set(entry.get(name, ())) != keys:
                        raise ValueError(
                            f"block {entry['index']}: {name} keys are not its divisors"
                        )
                for q in divisors or ():
                    inst.residue[q] = entry["residue"][str(q)]
            inst.validate()
            for entry, blk in zip(entries, inst.blocks):
                for q in blk.divisors or ():
                    for name, value in (("psi", inst.psi_of(q)), ("y", inst.y_of(q))):
                        if parse_rational(entry[name][str(q)]) != value:
                            raise ValueError(
                                f"{name}({q}) is not {format_rational(value)}"
                            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"malformed counterexample instance ({type(exc).__name__}: {exc})"
            ) from exc
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


def build_counterexample(schedule: BlockSchedule) -> CounterexampleInstance:
    """Build an instance block by block according to the schedule.

    Residue choices take the default numerator 1 (0 when the cofactor is
    1); every verified property is choice-independent.
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
            primes, _ = primes_for_epsilon(start, schedule.eps_for(j))
        except BudgetError as exc:
            raise BudgetError(f"block {j}: {exc}") from exc
        inst.blocks.append(_block(j, tuple(primes), schedule.eps_for(j)))
        previous_P = inst.blocks[-1].P
        largest_prime = primes[-1]
    inst.validate()
    return inst


def instance_from_prime_blocks(prime_blocks) -> CounterexampleInstance:
    """Build an instance from explicit prime lists, one list per block,
    with eps = 1 for every block, which any product of primes beats."""
    inst = CounterexampleInstance(mode="explicit", blocks=[])
    for j, primes in enumerate(prime_blocks, start=1):
        inst.blocks.append(_block(j, tuple(sorted(int(p) for p in primes)), Fraction(1)))
    inst.validate()
    return inst


def _refuse_unbuildable(blk: Block) -> None:
    """Raise BudgetError when a block's union cannot be built: its divisors
    were never materialized, or P is past the piece cap (q = P
    is in the support, and the union has phi(P) < P pieces)."""
    if blk.divisors is None:
        raise BudgetError(
            f"block {blk.index}: {blk.divisor_count} divisors exceed the materialization cap"
        )
    _check_piece_cap(blk.P, f"block {blk.index}: P")


def block_union_set(inst: CounterexampleInstance, j: int) -> TorusIntervalSet:
    """Exact union of the approximation sets over block j's support,
    refused by `_refuse_unbuildable` before any set is built."""
    blk = inst.block(j)
    _refuse_unbuildable(blk)
    sets = [build_approx_set(q, inst.psi_of(q), inst.y_of(q)) for q in blk.divisors]
    return TorusIntervalSet.empty().union(*sets)


class BlockMeasure(NamedTuple):
    measure: Fraction
    bound: Fraction  # phi(P)/P
    contained: bool
    ok: bool


def verify_block_measure(inst: CounterexampleInstance, j: int) -> BlockMeasure:
    """Block j's union, built once, checked exactly: it sits inside the
    reduced residues of P_j thickened by 1/(2 P_j) (half-open), and its
    measure against phi(P_j)/P_j and eps_j."""
    blk = inst.block(j)
    union = block_union_set(inst, j)
    # [a/P - 1/(2P), a/P + 1/(2P)) in units of 1/(2P).
    thickened = TorusIntervalSet.from_spans(
        2 * blk.P, [(2 * a - 1, 2 * a + 1) for a in coprime_residues(blk.P)]
    )
    contained = union.is_subset_of(thickened)
    measure = union.measure()
    bound = blk.density
    return BlockMeasure(measure, bound, contained, contained and measure <= bound < blk.eps)


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
