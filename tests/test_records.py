"""The contract every result record keeps: repr, equality, immutability,
hashing, and the refusals of the two records that validate their fields."""

import re

import pytest

from circfib.baseb import BaseBWord, CyclicGroupReport
from circfib.errors import InvalidWordError
from circfib.group import GcdCheck, GcdPropertyReport, GroupStructure
from circfib.orderq import PiMultiplesReport
from circfib.rewrite import Move, OrbitResult
from circfib.typology import ImageSetComparison, PartitionBlock
from circfib.verify import Claim, VerificationReport
from circfib.wheels import IdentityFiberReport

# (make a sample, its repr, whether it hashes); each sample holds at most one
# element per set, so the reprs do not depend on set iteration order
RECORDS = {
    "Move": (
        lambda: Move(rule="B", position=3, forward=False),
        "Move(rule='B', position=3, forward=False)",
        True,
    ),
    "OrbitResult": (
        lambda: OrbitResult(frozenset({(0, 1)}), False),
        "OrbitResult(words=frozenset({(0, 1)}), truncated=False)",
        True,
    ),
    "GroupStructure": (
        lambda: GroupStructure(45, (15, 3), 3),
        "GroupStructure(order=45, invariant_factors=(15, 3), d=3)",
        True,
    ),
    "GcdCheck": (lambda: GcdCheck(4, 6, 1, 1), "GcdCheck(m=4, n=6, lhs=1, rhs=1)", True),
    "GcdPropertyReport": (
        lambda: GcdPropertyReport((GcdCheck(2, 2, 1, 1),), ()),
        "GcdPropertyReport(pair_checks=(GcdCheck(m=2, n=2, lhs=1, rhs=1),), even_index_checks=())",
        True,
    ),
    "PiMultiplesReport": (
        lambda: PiMultiplesReport((1, 0), (0, 1), True, False, ((1, 0),)),
        "PiMultiplesReport(pi=(1, 0), pi_prime=(0, 1), multiples_match=True, "
        "rotation_match=False, satisfiers=((1, 0),))",
        True,
    ),
    "ImageSetComparison": (
        lambda: ImageSetComparison(frozenset({7}), frozenset({5}), 2),
        "ImageSetComparison(computed=frozenset({7}), formula=frozenset({5}), offset=2)",
        True,
    ),
    "PartitionBlock": (
        lambda: PartitionBlock(1, "bab", 1, 2),
        "PartitionBlock(index=1, block='bab', a_count=1, b_count=2)",
        True,
    ),
    "IdentityFiberReport": (
        lambda: IdentityFiberReport(1, frozenset({(1, 1)}), 1, {(0, 1): 1}),
        "IdentityFiberReport(ell=1, tree_words=frozenset({(1, 1)}), group_order=1, "
        "fiber_sizes={(0, 1): 1})",
        False,
    ),
    "BaseBWord": (
        lambda: BaseBWord(digits=(1, 4, 2), base=10),
        "BaseBWord(digits=(1, 4, 2), base=10)",
        True,
    ),
    "CyclicGroupReport": (
        lambda: CyclicGroupReport((BaseBWord((0,), 2),), True),
        "CyclicGroupReport(multiples=(BaseBWord(digits=(0,), base=2),), ok=True)",
        True,
    ),
    "Claim": (
        lambda: Claim("9", "balanced partition ell=3", "pass", ""),
        "Claim(criterion='9', subject='balanced partition ell=3', status='pass', detail='')",
        True,
    ),
    "VerificationReport": (
        lambda: VerificationReport([Claim("1", "order ell=1", "fail", "computed 2")]),
        "VerificationReport(claims=[Claim(criterion='1', subject='order ell=1', "
        "status='fail', detail='computed 2')])",
        False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, text, hashable = RECORDS[name]
    record = make()
    assert repr(record) == text
    assert record == make()
    if name != "VerificationReport":  # the other records were declared immutable
        first_field = re.match(r"\w+\((\w+)=", text).group(1)
        with pytest.raises(AttributeError):
            setattr(record, first_field, None)
        assert repr(record) == text
    if hashable:
        assert hash(record) == hash(make())
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: Move("C", 0), "rule must be 'A' or 'B', got 'C'"),
        (lambda: BaseBWord((1,), 1), "base must be > 1, got 1"),
        (lambda: BaseBWord((), 10), "word must have length >= 1"),
        (lambda: BaseBWord((1, 10), 10), "digits out of range for base 10: (1, 10)"),
    ],
    ids=["move-rule", "base", "length", "digit"],
)
def test_record_refusals(make, text):
    with pytest.raises(InvalidWordError) as exc:
        make()
    assert str(exc.value) == text
