"""The package's public surface: ``fdkit`` exports exactly what its
modules export, each name once and as its home module's object."""

import fdkit
from fdkit import covers, design, dsl, errors, fds, instances, reductions

MODULES = (errors, fds, covers, instances, design, reductions, dsl)

PUBLIC = [
    "__version__",
    # errors
    "FDKitError",
    "UnknownAttributeError",
    "UniverseMismatchError",
    "LimitExceededError",
    "CoverageError",
    "ReservedNameError",
    "InstanceFormatError",
    "RelationFormatError",
    # fds
    "Attribute",
    "AttributeSet",
    "FD",
    "FDSet",
    # covers
    "reduced_cover",
    "nonredundant_cover",
    "canonical_cover",
    "minimum_cover",
    "project_fds",
    "DEFAULT_PROJECTION_LIMIT",
    # instances
    "Row",
    "Relation",
    "join",
    "is_lossless_on",
    "two_tuple_witness",
    "oracle_implies",
    "random_satisfying_instance",
    "DEFAULT_ORACLE_LIMIT",
    # design
    "RelationScheme",
    "DatabaseSchema",
    "Violation",
    "NormalFormReport",
    "RepresentsReport",
    "is_determinant",
    "is_superkey",
    "find_key",
    "enumerate_keys",
    "is_prime",
    "check_bcnf",
    "check_3nf",
    "bcnf_decompose",
    "synthesize_3nf",
    "check_represents",
    "DEFAULT_SEARCH_LIMIT",
    # reductions
    "HittingSetInstance",
    "parse_instance",
    "render_instance",
    "solve_hitting_set",
    "reduce_to_schema",
    "DEFAULT_GROUND_LIMIT",
    # dsl
    "Diagnostic",
    "ParseResult",
    "SchemaDocument",
    "parse_schema",
    "parse_fd_text",
]

# public in their modules, and re-exported since the package list became
# the union of the modules' lists
REEXPORTED = ["AttrsLike", "RESERVED_C", "RESERVED_D", "RESERVED_NAMES"]


def test_the_public_names_are_the_documented_ones():
    assert len(PUBLIC) == 54
    assert sorted(fdkit.__all__) == sorted(PUBLIC + REEXPORTED)


def test_the_package_list_is_the_modules_lists_without_duplicates():
    assert len(fdkit.__all__) == len(set(fdkit.__all__))
    union = set().union(*(module.__all__ for module in MODULES))
    assert set(fdkit.__all__) == {"__version__"} | union
    assert sum(len(module.__all__) for module in MODULES) == len(union)


def test_each_name_is_its_home_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fdkit, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from fdkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fdkit.__all__)


def test_the_submodules_stay_package_attributes():
    for module in MODULES:
        assert getattr(fdkit, module.__name__.rpartition(".")[2]) is module
    assert design.project_fds is covers.project_fds
