"""Every exponential search refuses oversized input through one guard,
whose message names the operation, the input size and the limit."""

import pytest

from fdkit import (
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
    """Each guarded search as (operation, search), where ``search(limit)``
    runs it on an input of size ``n``."""
    attrs = AttributeSet([f"A{i}" for i in range(n)])
    sigma = FDSet([FD("A0", "A1")], universe=attrs)
    scheme = RelationScheme(attrs, sigma)
    schema = DatabaseSchema((scheme,))
    ground = " ".join(f"e{i}" for i in range(n))
    instance = parse_instance(f"elements: {ground}\nset: e0 e1\n")
    return [
        ("key enumeration", lambda limit: enumerate_keys(scheme, sigma, limit=limit)),
        ("BCNF check of scheme 0", lambda limit: check_bcnf(schema, limit=limit)),
        ("3NF check of scheme 0", lambda limit: check_3nf(schema, limit=limit)),
        ("BCNF decomposition of scheme 0", lambda limit: bcnf_decompose(schema, limit=limit)),
        ("projection", lambda limit: project_fds(sigma, attrs, limit=limit)),
        ("implication oracle", lambda limit: oracle_implies(sigma, FD("A0", "A1"), limit=limit)),
        ("hitting-set search", lambda limit: solve_hitting_set(instance, limit=limit)),
    ]


OPERATIONS = [operation for operation, _ in searches(2)]


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_refusal_names_operation_size_and_limit(index):
    operation, search = searches(6)[index]
    with pytest.raises(LimitExceededError) as info:
        search(5)
    message = str(info.value)
    assert message.startswith(operation)
    assert "size 6" in message
    assert "limit of 5" in message


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_input_at_the_limit_is_searched(index):
    _, search = searches(6)[index]
    search(6)


@pytest.mark.parametrize("index", range(len(OPERATIONS)), ids=OPERATIONS)
def test_a_negative_limit_is_a_usage_error_not_a_refusal(index):
    operation, search = searches(2)[index]
    with pytest.raises(ValueError) as info:
        search(-1)
    assert not isinstance(info.value, LimitExceededError)
    message = str(info.value)
    assert message.startswith(operation)
    assert "-1" in message
