from hypothesis import example, given, strategies as st
import pytest

from coreperim.partitions import (
    Partition,
    PartitionError,
    beta_set,
    column_heights,
    conjugate,
    durfee_length,
    format_partition,
    from_beta_set,
    from_parts,
    hook_lengths,
    is_s_core,
    is_self_conjugate,
    is_strict,
    main_diagonal_hooks,
    parse_partition,
)


@st.composite
def partitions(draw, max_parts=8, max_part=12):
    k = draw(st.integers(min_value=0, max_value=max_parts))
    parts = draw(
        st.lists(st.integers(min_value=1, max_value=max_part), min_size=k, max_size=k)
    )
    return from_parts(tuple(sorted(parts, reverse=True)))


def test_basic_attributes():
    p = from_parts((6, 3, 2, 1))
    assert p.length == 4
    assert p.size == 12
    assert p.perimeter == 6 + 4 - 1
    e = from_parts(())
    assert e.length == 0 and e.size == 0 and e.perimeter == 0


def test_from_parts_rejects_bad_input():
    with pytest.raises(PartitionError):
        from_parts((3, 5, 1))  # not weakly decreasing
    with pytest.raises(PartitionError):
        from_parts((3, 0))
    with pytest.raises(PartitionError):
        from_parts((3, -1))


def test_parse_format_round_trip():
    assert parse_partition("6,3,2,1") == from_parts((6, 3, 2, 1))
    assert parse_partition(" 6, 3 ,2,1 ") == from_parts((6, 3, 2, 1))
    assert parse_partition("") == from_parts(())
    assert format_partition(from_parts((6, 3, 2, 1))) == "6,3,2,1"
    assert format_partition(from_parts(())) == ""
    with pytest.raises(PartitionError):
        parse_partition("3,,1")
    with pytest.raises(PartitionError):
        parse_partition("a,b")


def test_hook_lengths_by_hand():
    # shape (6,3,2,1): first row hooks 9,7,5,3,2,1
    h = hook_lengths(from_parts((6, 3, 2, 1)))
    assert h == [[9, 7, 5, 3, 2, 1], [5, 3, 1], [3, 1], [1]]
    assert hook_lengths(from_parts(())) == []
    assert hook_lengths(from_parts((1,))) == [[1]]


def test_beta_set_is_first_column_hooks():
    p = from_parts((6, 3, 2, 1))
    h = hook_lengths(p)
    assert beta_set(p) == tuple(row[0] for row in h)
    assert beta_set(p) == (9, 5, 3, 1)
    assert from_beta_set({9, 5, 3, 1}) == p
    assert from_beta_set(set()) == from_parts(())


def test_from_beta_set_rejections_name_the_first_bad_row():
    bad_row = "not a valid first-column hook set: row {} would get part {}"
    for beta, row, part in (({0}, 1, 0), ({1, 0}, 1, 0), ({3, 1, 0}, 2, 0),
                            ({4, 2, 0}, 3, 0), ({7, 5, 0}, 3, 0)):
        with pytest.raises(PartitionError) as err:
            from_beta_set(beta)
        assert str(err.value) == bad_row.format(row, part)
    with pytest.raises(PartitionError, match="^beta-set elements must be distinct$"):
        from_beta_set([3, 3, 1])
    with pytest.raises(PartitionError, match="^beta-set elements must be distinct$"):
        from_beta_set([2, 0, 0])
    with pytest.raises(PartitionError, match="^beta-set elements must be non-negative$"):
        from_beta_set([2, -1])


def test_conjugate_by_hand():
    assert conjugate(from_parts((6, 3, 2, 1))) == from_parts((4, 3, 2, 1, 1, 1))
    assert conjugate(from_parts(())) == from_parts(())
    assert conjugate(from_parts((5,))) == from_parts((1, 1, 1, 1, 1))


def test_durfee_and_diagonal_hooks():
    p = from_parts((6, 3, 2, 1))
    assert durfee_length(p) == 2
    assert main_diagonal_hooks(p) == (9, 3)
    # principal hooks always sum to the size
    assert sum(main_diagonal_hooks(p)) == p.size
    assert main_diagonal_hooks(from_parts(())) == ()


def test_self_conjugate_detection():
    assert is_self_conjugate(from_parts((4, 2, 1, 1)))
    assert is_self_conjugate(from_parts(()))
    assert is_self_conjugate(from_parts((1,)))
    assert not is_self_conjugate(from_parts((2,)))
    assert not is_self_conjugate(from_parts((6, 3, 2, 1)))


def test_strict_detection():
    assert is_strict(from_parts((6, 3, 2, 1)))
    assert is_strict(from_parts(()))
    assert not is_strict(from_parts((3, 3, 1)))


def test_is_s_core_by_hooks():
    # 6,3,2,1 has hook multiset {9,7,5,3,2,1,5,3,1,3,1,1}; no hook divisible by 4, 6 or 11
    p = from_parts((6, 3, 2, 1))
    assert is_s_core(p, 4)
    assert is_s_core(p, 6)
    assert is_s_core(p, 11)
    assert not is_s_core(p, 5)
    assert not is_s_core(p, 3)
    assert is_s_core(from_parts(()), 2)


@given(partitions())
def test_beta_set_round_trip(p):
    assert from_beta_set(set(beta_set(p))) == p


def quadratic_conjugate(parts):
    """The definition: column j holds one box for each row longer than j."""
    return tuple(sum(1 for part in parts if part > j) for j in range(parts[0] if parts else 0))


@given(partitions(max_parts=20, max_part=30))
@example(Partition(()))
def test_conjugate_matches_the_quadratic_definition(p):
    assert conjugate(p).parts == quadratic_conjugate(p.parts)
    assert column_heights(list(p.parts)) == list(quadratic_conjugate(p.parts))


@given(partitions())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert conjugate(p).size == p.size


@given(partitions())
def test_hook_multiset_conjugation_invariant(p):
    ours = sorted(x for row in hook_lengths(p) for x in row)
    theirs = sorted(x for row in hook_lengths(conjugate(p)) for x in row)
    assert ours == theirs


@given(partitions())
def test_diagonal_hooks_strictly_decreasing_and_odd_iff_selfconj(p):
    hooks = main_diagonal_hooks(p)
    assert all(hooks[i] > hooks[i + 1] for i in range(len(hooks) - 1))
    assert sum(hooks) == p.size
    if is_self_conjugate(p):
        assert all(h % 2 == 1 for h in hooks)
        assert len(set(hooks)) == len(hooks)


@given(partitions(), st.integers(min_value=2, max_value=9))
def test_s_core_matches_hook_divisibility(p, s):
    flat = [x for row in hook_lengths(p) for x in row]
    assert is_s_core(p, s) == all(h % s != 0 for h in flat)


def _strict_partitions(max_size):
    # all strict partitions of size <= max_size, by largest part
    out = [()]
    def rec(prefix, remaining, top):
        for part in range(min(remaining, top), 0, -1):
            out.append(prefix + (part,))
            rec(prefix + (part,), remaining - part, part - 1)
    rec((), max_size, max_size)
    return out


def test_strict_core_two_modulus_equivalence():
    # a strict partition avoids hooks divisible by n and by dn+1
    # exactly when it avoids hooks divisible by n with perimeter <= dn
    for n in (3, 4, 5, 6):
        for d in (1, 2):
            for parts in _strict_partitions(40):
                p = from_parts(parts)
                lhs = is_s_core(p, n) and is_s_core(p, d * n + 1)
                rhs = is_s_core(p, n) and p.perimeter <= d * n
                assert lhs == rhs, (n, d, parts)
