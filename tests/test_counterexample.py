import json
from fractions import Fraction

import pytest

import torusapprox.approx as approx
import torusapprox.arith as arith
import torusapprox.counterexample as counterexample
from torusapprox.counterexample import (
    CounterexampleInstance,
    block_union_set,
    build_counterexample,
    divergence_partial_sum,
    instance_from_prime_blocks,
    verify_block_measure,
)
from torusapprox.cli import run
from torusapprox.errors import BudgetError

F = Fraction


def test_build_counterexample_validation(monkeypatch):
    def search(*args):
        raise AssertionError("a prime search ran before the values were checked")

    monkeypatch.setattr(counterexample, "primes_for_epsilon", search)
    with pytest.raises(ValueError, match="at least one block"):
        build_counterexample(0)
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        build_counterexample(1, mode="fast")
    with pytest.raises(ValueError, match="length must equal the block count"):
        build_counterexample(2, (F(1, 2),))
    for eps in (F(0), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            build_counterexample(2, (F(1, 2), eps))
    monkeypatch.undo()
    # Two blocks only: the third block's prime run hits the run cap.
    assert [blk.eps for blk in build_counterexample(2).blocks] == [F(1, 2), F(1, 4)]


def test_hand_construction_p6():
    inst = build_counterexample(1, (F(1, 2),))
    block = inst.blocks[0]
    assert block.primes == (2, 3)
    assert block.P == 6
    assert block.divisors == (2, 3, 6)
    assert inst.psi_of(2) == F(1, 6)
    assert inst.psi_of(3) == F(1, 4)
    assert inst.psi_of(6) == F(1, 2)
    assert inst.y_of(2) == F(2, 3)
    assert inst.y_of(3) == F(3, 2)
    assert inst.y_of(6) == 0
    assert inst.psi_of(5) == 0 and inst.y_of(5) == 0

    union = block_union_set(inst, 1)
    # the residues 1/6 and 5/6 thickened by 1/12
    assert union.pieces == ((F(1, 12), F(1, 4)), (F(3, 4), F(11, 12)))
    assert union.measure() == F(1, 3)
    measure = verify_block_measure(inst, 1)
    assert measure == (F(1, 3), F(1, 3), True, True)
    assert divergence_partial_sum(inst, 1) == F(5, 12)
    assert divergence_partial_sum(inst, 0) == 0


def test_single_prime_block():
    inst = build_counterexample(1, (F(1),))
    assert inst.blocks[0].P == 2
    assert inst.psi_of(2) == F(1, 2)
    assert inst.y_of(2) == 0
    assert block_union_set(inst, 1).pieces == ((F(1, 4), F(3, 4)),)
    measure = verify_block_measure(inst, 1)
    assert measure.measure == F(1, 2) and measure.bound == F(1, 2) and measure.ok
    assert divergence_partial_sum(inst, 1) == F(1, 4)


def test_prime_mode_second_block_starts_after_largest_prime():
    inst = build_counterexample(2, (F(1, 2), F(1, 2)), "prime")
    assert inst.blocks[0].primes == (2, 3)
    assert inst.blocks[1].primes[0] == 5
    prime_sets = [set(blk.primes) for blk in inst.blocks]
    assert prime_sets[0].isdisjoint(prime_sets[1])


def test_prime_mode_small_second_block_verifies():
    # keep eps mild so the second block stays within the piece budget
    inst = build_counterexample(2, (F(1, 2), F(4, 5)), "prime")
    assert inst.blocks[1].primes == (5, 7)
    measure = verify_block_measure(inst, 2)
    assert measure.contained and measure.ok
    total = divergence_partial_sum(inst, 2)
    assert total == F(5, 12) + F(34, 70)


def test_product_mode_second_block_starts_past_previous_product():
    inst = build_counterexample(2, (F(1, 2), F(9, 10)), "product")
    assert inst.blocks[0].P == 6
    assert inst.blocks[1].primes[0] == 7


def test_fixture_instances_p30_p210():
    for primes, density in [((2, 3, 5), F(4, 15)), ((2, 3, 5, 7), F(8, 35))]:
        inst = instance_from_prime_blocks([primes])
        block = inst.blocks[0]
        assert block.density == density
        measure = verify_block_measure(inst, 1)
        assert measure.contained
        assert measure.measure == density == measure.bound
        assert divergence_partial_sum(inst, 1) == F(block.P - 1, 2 * block.P)


def test_interval_radius_equals_thickening_radius():
    inst = instance_from_prime_blocks([[2, 3, 5]])
    P = inst.blocks[0].P
    for q in inst.blocks[0].divisors:
        assert F(inst.psi_of(q), q) == F(1, 2 * P)


def _saved(inst) -> dict:
    return json.loads(inst.to_json())


def test_residue_override_is_verified_too():
    obj = _saved(instance_from_prime_blocks([[2, 3]]))
    obj["blocks"][0]["residue"]["2"] = 2
    obj["blocks"][0]["y"]["2"] = "4/3"
    inst = CounterexampleInstance.from_json_obj(obj)
    assert inst.y_of(2) == F(4, 3)
    assert verify_block_measure(inst, 1).contained
    assert json.loads(inst.to_json()) == obj
    obj["blocks"][0]["residue"]["2"] = 3  # 3 not reduced mod 3
    obj["blocks"][0]["y"]["2"] = "2/1"
    with pytest.raises(ValueError, match="not reduced"):
        CounterexampleInstance.from_json_obj(obj)


def test_corrupted_target_breaks_containment():
    inst = instance_from_prime_blocks([[2, 3]])
    inst.residue[2] = 0  # center leaves the P=6 residue grid
    assert inst.y_of(2) == 0
    measure = verify_block_measure(inst, 1)
    assert not measure.contained and not measure.ok
    with pytest.raises(ValueError, match="not reduced"):
        inst.validate()


def test_validation_rejections(capsys, tmp_path):
    with pytest.raises(ValueError, match="not prime"):
        instance_from_prime_blocks([[4]])
    with pytest.raises(ValueError, match="reused"):
        instance_from_prime_blocks([[2, 3], [3, 5]])
    with pytest.raises(ValueError, match="reused"):
        instance_from_prime_blocks([[2, 2]])
    obj = _saved(instance_from_prime_blocks([[2, 3]]))
    obj["blocks"][0]["psi"]["2"] = "1/7"
    with pytest.raises(ValueError, match="psi\\(2\\) is not 1/6"):
        CounterexampleInstance.from_json_obj(obj)
    # A block's density must stay below its eps, in a loaded file too.
    obj = _saved(instance_from_prime_blocks([[2, 3]]))
    obj["blocks"][0]["eps"] = "1/3"
    with pytest.raises(ValueError, match="density 1/3 not below eps 1/3"):
        CounterexampleInstance.from_json_obj(obj)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(obj))
    assert run(["measure", "--q", "6", "--psi", f"cx:{path}"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "density 1/3 not below eps 1/3" in err
    inst = instance_from_prime_blocks([[2, 3]])
    with pytest.raises(ValueError, match="block index 0 out of range"):
        inst.block(0)
    with pytest.raises(ValueError, match="block count 2 out of range"):
        divergence_partial_sum(inst, 2)
    inst.residue[7] = 1
    with pytest.raises(ValueError, match="outside every materialized block"):
        inst.validate()


def _drop(key):
    def edit(obj):
        del obj["blocks"][0][key]["2"]
    return edit


def _set(key, q, value):
    def edit(obj):
        obj["blocks"][0][key][q] = value
    return edit


def _set_field(key, value):
    def edit(obj):
        obj["blocks"][0][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _drop("psi"),
    _drop("y"),
    _drop("residue"),
    _set("psi", "5", "5/12"),  # q = 5 is outside the block
    _set("y", "02", "2/3"),
    _set("residue", "2", "1"),
    _set("residue", "2", True),
    _set("psi", "2", 1),
    _set("y", "3", "1/2"),
    _set_field("divisors", "abc"),
    _set_field("divisors", [2, 3]),
    _set_field("density", "1/2"),
    _set_field("P", 30),
    _set_field("index", 2),
    lambda obj: obj["blocks"][0].pop("residue"),
    lambda obj: obj.pop("blocks"),
    lambda obj: obj["blocks"].append(7),
], ids=[
    "psi-missing", "y-missing", "residue-missing", "psi-extra", "y-bad-key",
    "residue-str", "residue-bool", "psi-int", "y-value", "divisors-str",
    "divisors-short", "density", "P", "index", "no-residue-map", "no-blocks",
    "block-int",
])
def test_malformed_files_raise_value_error(edit):
    obj = _saved(instance_from_prime_blocks([[2, 3]]))
    edit(obj)
    with pytest.raises(ValueError):
        CounterexampleInstance.from_json_obj(obj)
    with pytest.raises(ValueError):
        CounterexampleInstance.from_json_obj([obj])


def test_budget_refusals(monkeypatch):
    monkeypatch.setattr(counterexample, "_DIVISOR_CAP", 4)
    with pytest.raises(BudgetError, match="divisors"):
        inst = instance_from_prime_blocks([[2, 3, 5, 7]])
        block_union_set(inst, 1)
    monkeypatch.undo()
    inst = instance_from_prime_blocks([[2, 3, 5, 7, 11, 13, 17, 19]])  # P > 10**6
    with pytest.raises(BudgetError, match="approximation-set cap"):
        block_union_set(inst, 1)
    monkeypatch.setattr(approx, "_PIECE_CAP", 29)
    with pytest.raises(BudgetError, match="P = 30 exceeds"):
        verify_block_measure(instance_from_prime_blocks([[2, 3, 5]]), 1)
    monkeypatch.setattr(arith, "_PRIME_RUN_CAP", 10)
    with pytest.raises(BudgetError, match="block 1"):
        build_counterexample(1, (F(1, 10**4),))


def test_deferred_block_closed_form_divergence(monkeypatch):
    monkeypatch.setattr(counterexample, "_DIVISOR_CAP", 8)
    inst = instance_from_prime_blocks([[2, 3, 5, 7, 11, 13]])
    assert inst.blocks[0].divisors is None
    P = inst.blocks[0].P
    assert divergence_partial_sum(inst, 1) == F(P - 1, 2 * P)
    assert inst.psi_of(30030) == F(30030, 2 * P)
    assert inst.psi_of(7) == F(7, 2 * P)
    obj = _saved(inst)
    assert "psi" not in obj["blocks"][0]
    assert CounterexampleInstance.from_json_obj(obj).to_json() == inst.to_json()


def test_json_round_trip():
    inst = build_counterexample(1, (F(1, 2),))
    text = inst.to_json()
    again = CounterexampleInstance.from_json(text)
    assert again.to_json() == text
    assert verify_block_measure(again, 1).contained
    assert verify_block_measure(again, 1) == verify_block_measure(inst, 1)


def test_json_file_round_trip(tmp_path):
    inst = instance_from_prime_blocks([[2, 3, 5]])
    path = tmp_path / "instance.json"
    inst.save(path)
    again = CounterexampleInstance.load(path)
    assert again.to_json() == inst.to_json()


def test_block_supports_disjoint():
    inst = build_counterexample(2, (F(1, 2), F(4, 5)), "prime")
    supports = [set(blk.divisors) for blk in inst.blocks]
    assert supports[0].isdisjoint(supports[1])
    for q in supports[0]:
        assert inst.block_of(q) == 1
    for q in supports[1]:
        assert inst.block_of(q) == 2
