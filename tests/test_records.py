"""The value semantics of reslat's records: immutable, equal and hashed by
their fields, printed as ``Name(field=value, ...)``."""

import copy
import pickle

import pytest

from reslat import (
    ChainFlags,
    CompletionProblem,
    CongruenceFilter,
    FormatError,
    Identity,
    IdentityResult,
    LowerCompatibleTriple,
    Nucleus,
    ObstructionWitness,
    SearchReport,
    ValidationReport,
    VFormation,
    lukasiewicz,
    two,
)
from reslat.algebra import CheckOutcome
from reslat.amalgamation import ObstructionCheck, SizeStats
from reslat.completion import SearchStats
from reslat.identities import BinOp, Const, Neg, Var


def _records():
    """Each record type, as a name and a function building one value; two
    calls build equal but distinct values."""
    l3 = lukasiewicz(3)
    return {
        "FiniteRL": lambda: lukasiewicz(3),
        "CheckOutcome": lambda: CheckOutcome("monoid", False, (1, 2), "not associative"),
        "ValidationReport": lambda: ValidationReport("L3", (CheckOutcome("lattice", True),)),
        "CongruenceFilter": lambda: CongruenceFilter(l3, frozenset({1, 2})),
        "VFormation": lambda: VFormation(two(), l3, l3, (0, 2), (0, 2), "V"),
        "ObstructionWitness": lambda: ObstructionWitness(0, 1, 1, 0, 0),
        "ObstructionCheck": lambda: ObstructionCheck("W1", ("REJECT(W1)",)),
        "SizeStats": lambda: SizeStats(5, 12, 3),
        "SearchReport": lambda: SearchReport("UNSAT", 5, sizes=(SizeStats(5, 12, 3),)),
        "ChainFlags": lambda: ChainFlags(integral=True, k_potent=2),
        "CompletionProblem": lambda: CompletionProblem(3, 2, {(0, 0): 0}, {}, {}),
        "LowerCompatibleTriple": lambda: LowerCompatibleTriple(l3, (0, 0, 2), (0, 2, 2)),
        "Nucleus": lambda: Nucleus(l3, (0, 1, 2)),
        "Var": lambda: Var("x"),
        "Const": lambda: Const("1"),
        "BinOp": lambda: BinOp("*", Var("x"), Const("1")),
        "Neg": lambda: Neg(Var("x")),
        "Identity": lambda: Identity((Var("x"), BinOp("*", Var("x"), Const("1"))), "EQ"),
        "IdentityResult": lambda: IdentityResult(False, ("x",), (1,), "x=a: values a , 1"),
    }


RECORDS = _records()
# a field of each record and a value to try to assign to it
FIELDS = {
    "FiniteRL": ("name", "other"),
    "CheckOutcome": ("ok", True),
    "ValidationReport": ("subject", "other"),
    "CongruenceFilter": ("members", frozenset()),
    "VFormation": ("name", "other"),
    "ObstructionWitness": ("side", "RIGHT"),
    "ObstructionCheck": ("clause", None),
    "SizeStats": ("nodes", 4),
    "SearchReport": ("verdict", "FOUND"),
    "ChainFlags": ("k_potent", 3),
    "CompletionProblem": ("size", 4),
    "LowerCompatibleTriple": ("sigma", (0, 1, 2)),
    "Nucleus": ("map", (2, 2, 2)),
    "Var": ("name", "y"),
    "Const": ("symbol", "0"),
    "BinOp": ("op", "/\\"),
    "Neg": ("arg", Var("y")),
    "Identity": ("relation", "GEQ"),
    "IdentityResult": ("holds", True),
}
# records with a dict field, which no hash can take
UNHASHABLE = {"CompletionProblem"}


def test_every_record_is_listed_once():
    assert set(RECORDS) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_a_field_raises(name):
    record = RECORDS[name]()
    field, value = FIELDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_changes_one_field(name):
    record = RECORDS[name]()
    field, value = FIELDS[name]
    changed = record._replace(**{field: value})
    assert type(changed) is type(record) and getattr(changed, field) == value and changed != record
    assert changed._replace(**{field: getattr(record, field)}) == record


def test_library_formations_hold_their_maps_as_index_tuples():
    from reslat import document_to_vformation, pointed_vformation, rotated_vformation, vformation_to_document
    from reslat import vs_formation

    vs = vs_formation()
    loaded = document_to_vformation(vformation_to_document(vs))
    for vf in (vs, pointed_vformation(vs, 0), rotated_vformation(vs, "identity", 2), loaded):
        assert type(vf.i) is type(vf.j) is tuple
        twin = pickle.loads(pickle.dumps(vf))
        assert twin == vf and hash(twin) == hash(vf)
    assert (loaded.i, loaded.j) == (vs.i, vs.j) == ((0, 2, 3), (0, 3, 4))
    assert vs._replace(j=(0, 2, 4)) != vs


def test_search_stats_is_a_mutable_counter():
    stats = SearchStats()
    assert (stats.nodes, stats.solutions) == (0, 0)
    stats.nodes += 2
    stats.solutions += 1
    assert (stats.nodes, stats.solutions) == (2, 1)
    assert repr(stats) == "SearchStats(nodes=2, solutions=1)"


def test_record_reprs_are_pinned():
    assert repr(RECORDS["CheckOutcome"]()) == (
        "CheckOutcome(flag='monoid', ok=False, witness=(1, 2), detail='not associative')"
    )
    assert repr(SizeStats(size=5, placements=12, nodes=3)) == "SizeStats(size=5, placements=12, nodes=3)"
    assert repr(RECORDS["IdentityResult"]()) == (
        "IdentityResult(holds=False, variables=('x',), assignment=(1,), detail='x=a: values a , 1')"
    )
    assert repr(IdentityResult(True, ())) == "IdentityResult(holds=True, variables=(), assignment=None, detail='')"
    assert repr(ChainFlags(integral=True)) == (
        "ChainFlags(integral=True, commutative=False, k_potent=None, divisible=False, pointed=False)"
    )
    assert repr(lukasiewicz(3)) == "FiniteRL(L3, size=3)"


def test_chain_flags_take_keywords_only():
    with pytest.raises(TypeError):
        ChainFlags(True)


@pytest.mark.parametrize("k", [0, -1, True, 2.0, "2"])
def test_chain_flags_reject_a_potency_that_is_no_positive_integer(k):
    with pytest.raises(FormatError, match="k_potent must be an integer of at least 1"):
        ChainFlags(k_potent=k)
    with pytest.raises(FormatError, match="k_potent must be an integer of at least 1"):
        ChainFlags(integral=True)._replace(k_potent=k)
