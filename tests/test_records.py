"""The frozen records: ``repr``, equality, hashing, immutability, argument
checking, pickling and copying, for each of the nine record classes.

The ``repr`` texts were recorded when the classes were still
``@dataclass(frozen=True)`` and must not change."""

import copy
import pickle

import pytest

from fdkit import (
    FD,
    AttributeSet,
    DatabaseSchema,
    Diagnostic,
    FDSet,
    HittingSetInstance,
    NormalFormReport,
    ParseResult,
    RelationScheme,
    RepresentsReport,
    SchemaDocument,
    Violation,
    check_3nf,
    check_represents,
    parse_schema,
)

SCHEME = (
    "RelationScheme(attrs=AttributeSet('A B C'), fds=FDSet([FD('A', 'B'), FD('B', 'C'),"
    " FD('C', '')], universe='A B C'), name='R')"
)
VIOLATION = (
    "Violation(scheme_index=0, determinant=AttributeSet('B'), dependents=AttributeSet('C'),"
    " reason='nonprime-dependent')"
)
DIAGNOSTIC = (
    "Diagnostic(severity='warning', line=4, column=1, code='W200',"
    " message='vacuous dependency: empty right side')"
)
DOCUMENT = (
    f"SchemaDocument(schemes=({SCHEME},), fds=FDSet([FD('A', 'B'), FD('B', 'C'), FD('C', '')],"
    " universe='A B C'), universe=AttributeSet('A B C'), explicit_universe=False,"
    " scheme_lines=(1,), fd_lines=(2, 3, 4), universe_line=None)"
)


def records() -> dict:
    """One instance of each record class, by the ``repr`` it must have."""
    parsed = parse_schema("scheme R(A, B, C)\nfd A -> B\nfd B -> C\nfd C ->\n")
    doc = parsed.document
    scheme = doc.schemes[0]
    report = check_3nf(doc.database_schema())
    lossy = parse_schema("scheme R1(A,C)\nscheme R2(A,B)\nscheme R3(B,C)\n").document
    universal = parse_schema("fd A, B -> C\n").document.universal_scheme()
    return {
        SCHEME: scheme,
        f"DatabaseSchema(schemes=({SCHEME},))": doc.database_schema(),
        VIOLATION: report.witnesses[0],
        f"NormalFormReport(form='3nf', satisfied=False, witnesses=({VIOLATION},))": report,
        "RepresentsReport(dependency_preserving=False, lossless_verdict='counterexample',"
        " counterexample=Relation(AttributeSet('A B C'), 3 rows))": check_represents(
            lossy.database_schema(), universal
        ),
        "HittingSetInstance(ground=(Attribute('p'), Attribute('q')),"
        " subsets=(AttributeSet('p q'), AttributeSet('q')))": HittingSetInstance(("p", "q"), ("p q", "q")),
        DIAGNOSTIC: parsed.diagnostics[0],
        DOCUMENT: doc,
        f"ParseResult(document={DOCUMENT}, diagnostics=({DIAGNOSTIC},))": parsed,
        "RelationScheme(attrs=AttributeSet('A'), fds=FDSet([], universe='A'), name=None)": RelationScheme("A", []),
        "SchemaDocument(schemes=(), fds=FDSet([], universe=''), universe=AttributeSet(''),"
        " explicit_universe=False, scheme_lines=(), fd_lines=(), universe_line=None)": SchemaDocument(
            (), FDSet(), AttributeSet()
        ),
    }


def test_every_record_class_is_pinned():
    names = {type(r).__name__ for r in records().values()}
    assert names == {
        "RelationScheme", "DatabaseSchema", "Violation", "NormalFormReport", "RepresentsReport",
        "HittingSetInstance", "Diagnostic", "SchemaDocument", "ParseResult",
    }


@pytest.mark.parametrize("text", list(records()), ids=lambda t: t.partition("(")[0])
def test_repr_is_unchanged(text):
    assert repr(records()[text]) == text


def test_equality_and_hash_ignore_the_name_and_the_source_lines():
    attrs, fds = AttributeSet("A B"), FDSet([FD("A", "B")])
    named, unnamed = RelationScheme(attrs, fds, "R"), RelationScheme(attrs, fds)
    assert named == unnamed and hash(named) == hash(unnamed)
    assert named != RelationScheme(attrs, FDSet([FD("B", "A")]), "R")
    doc = parse_schema("scheme R(A, B)\n\nfd A -> B\n").document
    moved = SchemaDocument(doc.schemes, doc.fds, doc.universe, scheme_lines=(5,), fd_lines=(9,), universe_line=2)
    assert doc == moved and hash(doc) == hash(moved)
    assert doc != SchemaDocument(doc.schemes, doc.fds, doc.universe, explicit_universe=True)


def test_records_of_different_classes_are_unequal():
    assert Diagnostic("error", 1, 1, "E100", "m") != ("error", 1, 1, "E100", "m")
    assert Violation(0, "A", "B", "r") == Violation(0, "A", "B", "r")
    assert Violation(0, "A", "B", "r") != Violation(1, "A", "B", "r")


@pytest.mark.parametrize("record", list(records().values()), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    field = next(iter(vars(record)))  # the first field
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RelationScheme("A"),
        lambda: RelationScheme("A", [], "R", "extra"),
        lambda: RelationScheme("A", [], nmae="R"),
        lambda: DatabaseSchema(),
        lambda: DatabaseSchema((), ()),
        lambda: Violation(0, "A", "B"),
        lambda: Violation(0, "A", "B", "r", scheme_index=1),
        lambda: NormalFormReport("bcnf", True, (), None),
        lambda: RepresentsReport(True, "x", None, reason="r"),
        lambda: HittingSetInstance(("p",)),
        lambda: Diagnostic("error", 1, 1, "E100"),
        lambda: SchemaDocument((), FDSet()),
        lambda: SchemaDocument((), FDSet(), AttributeSet(), False, (), (), None, None),
        lambda: SchemaDocument(fds=FDSet(), universe=AttributeSet(), explicit_universe=True),
        lambda: ParseResult(None),
        lambda: ParseResult(None, (), documnet=None),
    ],
)
def test_a_missing_or_extra_argument_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


class Witness(Violation):
    pass


def test_a_plain_subclass_keeps_the_fields():
    witness = Witness(0, "A", "B", "r")
    assert repr(witness) == "Witness(scheme_index=0, determinant='A', dependents='B', reason='r')"
    assert witness == Witness(0, "A", "B", "r") != Violation(0, "A", "B", "r")
    with pytest.raises(TypeError):
        Witness(0, "A", "B")


def test_fields_bind_by_keyword_and_default():
    doc = SchemaDocument(universe=AttributeSet("A"), fds=FDSet(universe="A"), schemes=())
    assert (doc.explicit_universe, doc.scheme_lines, doc.fd_lines, doc.universe_line) == (False, (), (), None)
    assert ParseResult(diagnostics=(), document=None) == ParseResult(None, ())


@pytest.mark.parametrize("record", list(records().values()), ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
