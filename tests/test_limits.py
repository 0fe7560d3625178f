"""Every exponential search refuses oversized input through one guard,
whose message names the operation, the input size and the limit, and
takes one default limit when its caller passes none."""

import inspect

import pytest

import fdkit
from fdkit import (
    DEFAULT_LIMIT,
    FD,
    AttributeSet,
    DatabaseSchema,
    FDSet,
    LimitExceededError,
    RelationScheme,
    bcnf_decompose,
    check_3nf,
    check_bcnf,
    enumerate_keys,
    oracle_implies,
    parse_instance,
    project_fds,
    solve_hitting_set,
)


def searches(n):
    """Each guarded search as (operation, search), where ``search(limit=l)``
    runs it on an input of size ``n``, and ``search()`` with no limit."""
    attrs = AttributeSet([f"A{i}" for i in range(n)])
    sigma = FDSet([FD("A0", "A1")], universe=attrs)
    scheme = RelationScheme(attrs, sigma)
    schema = DatabaseSchema((scheme,))
    ground = " ".join(f"e{i}" for i in range(n))
    instance = parse_instance(f"elements: {ground}\nset: e0 e1\n")
    return [
        ("key enumeration", lambda **limit: enumerate_keys(scheme, sigma, **limit)),
        ("BCNF check of scheme 0", lambda **limit: check_bcnf(schema, **limit)),
        ("3NF check of scheme 0", lambda **limit: check_3nf(schema, **limit)),
        ("BCNF decomposition of scheme 0", lambda **limit: bcnf_decompose(schema, **limit)),
        ("projection", lambda **limit: project_fds(sigma, attrs, **limit)),
        ("implication oracle", lambda **limit: oracle_implies(sigma, FD("A0", "A1"), **limit)),
        ("hitting-set search", lambda **limit: solve_hitting_set(instance, **limit)),
    ]


OPERATIONS = [operation for operation, _ in searches(2)]


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_refusal_names_operation_size_and_limit(index):
    operation, search = searches(6)[index]
    with pytest.raises(LimitExceededError) as info:
        search(limit=5)
    message = str(info.value)
    assert message.startswith(operation)
    assert "size 6" in message
    assert "limit of 5" in message


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_input_at_the_limit_is_searched(index):
    _, search = searches(6)[index]
    search(limit=6)


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_a_negative_limit_is_a_usage_error_not_a_refusal(index):
    operation, search = searches(2)[index]
    with pytest.raises(ValueError) as info:
        search(limit=-1)
    assert not isinstance(info.value, LimitExceededError)
    message = str(info.value)
    assert message.startswith(operation)
    assert "-1" in message


@pytest.mark.parametrize("limit", [None, 1.5, True, "6"], ids=repr)
@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_a_limit_that_is_not_an_int_is_a_type_error(index, limit):
    operation, search = searches(2)[index]
    with pytest.raises(TypeError) as info:
        search(limit=limit)
    message = str(info.value)
    assert message.startswith(operation)
    assert repr(limit) in message


def test_every_limit_parameter_defaults_to_the_one_default():
    guarded = []
    for name in fdkit.__all__:
        value = getattr(fdkit, name)
        if inspect.isfunction(value) and "limit" in inspect.signature(value).parameters:
            assert inspect.signature(value).parameters["limit"].default is DEFAULT_LIMIT, name
            guarded.append(name)
    assert sorted(guarded) == sorted(
        [
            "enumerate_keys",
            "is_prime",
            "check_bcnf",
            "check_3nf",
            "bcnf_decompose",
            "synthesize_3nf",
            "project_fds",
            "oracle_implies",
            "solve_hitting_set",
        ]
    )


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_with_no_limit_the_default_answers_at_it_and_refuses_beyond(index):
    operation, search = searches(DEFAULT_LIMIT)[index]
    search()
    with pytest.raises(LimitExceededError) as info:
        searches(DEFAULT_LIMIT + 1)[index][1]()
    assert str(info.value) == (
        f"{operation} refused: size {DEFAULT_LIMIT + 1} exceeds the limit of {DEFAULT_LIMIT}"
    )
