"""Every record type: immutable, copyable, picklable, with a pinned repr and
unchanged validation messages."""
import copy
import pickle
from fractions import Fraction

import pytest

from coreperim.codec import CoreVector, DiagVector
from coreperim.diagnostics import ConditionReport, TailEntry, TailReport
from coreperim.distributions import DiscreteDist
from coreperim.exactdist import ConditionalStat, MomentReport
from coreperim.families import FamilySpec
from coreperim.gaussref import NormalDistanceResult
from coreperim.partitions import Partition
from coreperim.polya import (
    BernoulliSplit,
    LowerTailCheck,
    PFSequence,
    RootCertificate,
    UMeanBounds,
)

F = Fraction
CERT = RootCertificate(2, ((F(-3), F(-2)), (F(-1), F(-1, 2))))
CERT_REPR = ("RootCertificate(degree=2, brackets=((Fraction(-3, 1), Fraction(-2, 1)), "
             "(Fraction(-1, 1), Fraction(-1, 2))))")
ENTRY = TailEntry(F(1, 2), 0.5, F(1, 4), 0.25, None)
ENTRY_REPR = "TailEntry(multiple=Fraction(1, 2), r=0.5, tail=Fraction(1, 4), tail_float=0.25, c_witness=None)"

# (record, its repr): the reprs are those the records printed as frozen dataclasses
RECORDS = [
    (FamilySpec("core", 5, 3), "FamilySpec(family='core', n=5, cap=3)"),
    (CoreVector(5, 3, (0, 1, 2, 3)), "CoreVector(n=5, d=3, x=(0, 1, 2, 3))"),
    (DiagVector(4, 2, (1, 2, 0, 0)), "DiagVector(n=4, e=2, x=(1, 2, 0, 0))"),
    (Partition((6, 3, 2, 1)), "Partition(parts=(6, 3, 2, 1))"),
    (Partition(()), "Partition(parts=())"),
    (PFSequence((1, 3, 1)), "PFSequence(coefficients=(1, 3, 1))"),
    (MomentReport(F(3, 2), F(1, 4), (F(1), F(0), F(1, 4)), {1: "0.000"}),
     "MomentReport(mean=Fraction(3, 2), variance=Fraction(1, 4), central=(Fraction(1, 1), "
     "Fraction(0, 1), Fraction(1, 4)), standardized={1: '0.000'}, family=None, stat=None, "
     "n=None, cap=None)"),
    (MomentReport(F(3, 2), F(1, 4), (F(1),), {}, "core", "length", 5, 3),
     "MomentReport(mean=Fraction(3, 2), variance=Fraction(1, 4), central=(Fraction(1, 1),), "
     "standardized={}, family='core', stat='length', n=5, cap=3)"),
    (ConditionalStat(DiscreteDist({0: 1, 1: 1}), F(1, 2), F(1, 4), F(1, 2), F(1, 4)),
     "ConditionalStat(dist=DiscreteDist({0: 1, 1: 1}, total=2), mean=Fraction(1, 2), "
     "variance=Fraction(1, 4), closed_mean=Fraction(1, 2), closed_variance=Fraction(1, 4))"),
    (NormalDistanceResult("core", "length", 3, 9, 0.25, 0.125),
     "NormalDistanceResult(family='core', stat='length', cap=3, n=9, d_k=0.25, d_w=0.125)"),
    (CERT, CERT_REPR),
    (BernoulliSplit(4, 1, (-2.618, -0.382), (0.724, 0.276), CERT, 1e-16),
     "BernoulliSplit(n=4, d=1, roots=(-2.618, -0.382), probabilities=(0.724, 0.276), "
     f"certificate={CERT_REPR}, reconstruction_error=1e-16)"),
    (UMeanBounds(4, 1, F(6, 5), F(2), True, 0.1),
     "UMeanBounds(n=4, d=1, mean=Fraction(6, 5), upper=Fraction(2, 1), meets_upper=True, "
     "linear_slack=0.1)"),
    (LowerTailCheck(4, 1, F(1), F(6, 5), F(1, 5), 0.66, True),
     "LowerTailCheck(n=4, d=1, r=Fraction(1, 1), mean=Fraction(6, 5), tail=Fraction(1, 5), "
     "bound=0.66, holds=True)"),
    (ConditionReport(5, 3, 1, True, True, F(2, 3), F(1, 3), F(9), 1.5, 2.5, None),
     "ConditionReport(n=5, d=3, pair_coupling=1, arithmetic_exact=True, zero_at_origin=True, "
     "var_x=Fraction(2, 3), inf_var_g=Fraction(1, 3), sup_g_sq=Fraction(9, 1), "
     "near_independence_ratio=1.5, boundedness_ratio=2.5, nondegeneracy_max=None)"),
    (ENTRY, ENTRY_REPR),
    (TailReport("core", "size", 5, 3, 100, F(7, 2), F(5, 4), (ENTRY,)),
     "TailReport(family='core', stat='size', n=5, cap=3, scale=100, mean=Fraction(7, 2), "
     f"variance=Fraction(5, 4), entries=({ENTRY_REPR},))"),
]
IDS = [f"{type(record).__name__}-{i}" for i, (record, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_copies_pickles_and_prints_as_pinned(record, text):
    assert repr(record) == text
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_field_cannot_be_assigned(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_a_record_is_the_tuple_of_its_fields():
    spec = FamilySpec("core", 5, 3)
    assert spec == ("core", 5, 3) and hash(spec) == hash(("core", 5, 3))
    family, n, cap = spec
    assert (family, n, cap) == ("core", 5, 3)
    # a partition iterates over its parts, and the tuple it is holds them once
    p = Partition((3, 1))
    assert list(p) == [3, 1] and p == ((3, 1),) and p.parts == (3, 1)


INVALID = [
    (lambda: FamilySpec("bogus", 5, 3),
     "unknown family 'bogus', expected one of ('core', 'strict', 'selfconj')"),
    (lambda: FamilySpec("core", 1, 3), "modulus n must be at least 2"),
    (lambda: FamilySpec("core", 5, -1), "capacity must be non-negative"),
    (lambda: CoreVector(1, 3, ()), "modulus n must be at least 2"),
    (lambda: CoreVector(5, -1, (0, 0, 0, 0)), "capacity d must be non-negative"),
    (lambda: CoreVector(5, 3, (0, 1, 2)), "vector must have length 4, got 3"),
    (lambda: CoreVector(5, 3, (0, 1, 2, 4)), "entries must lie in [0, 3]"),
    (lambda: CoreVector(5, 3, (0, -1, 2, 3)), "entries must lie in [0, 3]"),
    (lambda: DiagVector(1, 2, (0,)), "modulus n must be at least 2"),
    (lambda: DiagVector(4, -1, (0, 0, 0, 0)), "capacity e must be non-negative"),
    (lambda: DiagVector(4, 2, (0, 0, 0)), "vector must have length 4, got 3"),
    (lambda: DiagVector(4, 2, (0, 3, 0, 0)), "entries must lie in [0, 2]"),
    (lambda: DiagVector(4, 2, (0, 1, 2, 0)), "entries 2 and 3 may not both be nonzero"),
    (lambda: DiagVector(5, 2, (1, 0, 0, 0, 2)), "entries 1 and 5 may not both be nonzero"),
    (lambda: PFSequence(()), "need a nonzero leading coefficient"),
    (lambda: PFSequence((1, 2, 0)), "need a nonzero leading coefficient"),
    (lambda: PFSequence((1, -2, 1)), "coefficients must be nonnegative"),
]


@pytest.mark.parametrize("build,message", INVALID, ids=[m for _, m in INVALID])
def test_record_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
