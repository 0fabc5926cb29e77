import numpy as np
import pytest

from hstconformal import DataValidationError, NetworkTopology, PreconditionError


def _topo(assign, m=None):
    assign = list(assign)
    n = len(assign)
    if m is None:
        m = max(assign) + 1
    return NetworkTopology(
        circuit_ids=tuple(f"c{i}" for i in range(n)),
        substation_ids=tuple(f"s{j}" for j in range(m)),
        substation_of=np.array(assign, dtype=np.int64),
    )


def _incidence(topo):
    """The (n, m) 0/1 incidence matrix C: C[i, j] = 1 when circuit i is in substation j."""
    return np.eye(topo.m, dtype=int)[topo.substation_of]


def _same_substation(topo):
    """(n, n) boolean: circuits i and i' share a substation."""
    sub = topo.substation_of
    return sub[:, None] == sub[None, :]


def test_membership_identity_when_each_circuit_alone():
    topo = _topo([0, 1, 2])
    assert topo.substation_of.tolist() == [0, 1, 2]
    assert [idx.tolist() for idx in topo.members] == [[0], [1], [2]]
    assert np.array_equal(_same_substation(topo), np.eye(3, dtype=bool))


def test_membership_all_ones_single_substation():
    topo = _topo([0, 0, 0, 0])
    assert topo.substation_of.tolist() == [0, 0, 0, 0]
    assert [idx.tolist() for idx in topo.members] == [[0, 1, 2, 3]]
    assert _same_substation(topo).all()


def test_membership_is_block_diagonal_under_grouping():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        assign = rng.integers(0, m, size=n)
        assign[:m] = np.arange(m)  # keep every substation non-empty
        topo = _topo(assign.tolist(), m=m)
        assert topo.substation_of.tolist() == assign.tolist()
        S = _same_substation(topo)
        for i in range(n):
            for j in range(n):
                assert S[i, j] == (assign[i] == assign[j])
        # members is the same grouping: disjoint blocks covering every circuit
        for j, idx in enumerate(topo.members):
            assert idx.tolist() == np.flatnonzero(assign == j).tolist()
        assert sorted(np.concatenate(topo.members).tolist()) == list(range(n))


def test_aggregate_hand_example():
    # circuits 0,1 -> substation 0 and circuits 2,3 -> substation 1
    topo = _topo([0, 0, 1, 1])
    out = topo.aggregate(np.array([1.0, 2.0, 3.0, 4.0]))
    assert out.tolist() == [3.0, 7.0]


def test_aggregate_preserves_totals_and_linearity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, n + 1))
        assign = rng.integers(0, m, size=n)
        assign[:m] = np.arange(m)
        topo = _topo(assign.tolist(), m=m)
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        a, b = rng.normal(size=2)
        assert abs(topo.aggregate(v).sum() - v.sum()) < 1e-10
        lhs = topo.aggregate(a * v + b * w)
        rhs = a * topo.aggregate(v) + b * topo.aggregate(w)
        assert np.allclose(lhs, rhs, atol=1e-10)
        # integer input stays exact
        y = rng.integers(0, 40, size=n)
        assert topo.aggregate(y).sum() == y.sum()


def test_aggregate_matches_matrix_product():
    rng = np.random.default_rng(3)
    assign = rng.integers(0, 4, size=9)
    assign[:4] = np.arange(4)
    topo = _topo(assign.tolist(), m=4)
    M = rng.normal(size=(5, 9))
    assert np.allclose(topo.aggregate(M), M @ _incidence(topo))


def test_aggregate_rejects_wrong_length():
    # a wrong-length vector from library code is a caller's mistake, not bad
    # input data; mismatched input files are rejected earlier, by the CLI
    topo = _topo([0, 0, 1])
    with pytest.raises(PreconditionError, match="3 circuits"):
        topo.aggregate(np.zeros(4))


def test_rejects_row_with_no_substation():
    # circuit b has no substation index
    with pytest.raises(DataValidationError, match="one integer substation index per circuit"):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array([0]))


def test_rejects_row_with_two_substations():
    # a circuit's assignment is one index, so two per circuit is the wrong shape
    with pytest.raises(DataValidationError, match=r"shape \(2, 2\) for 2 circuits"):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array([[0, 1], [1, 1]]))


def test_rejects_non_binary_entries():
    # an index past the last substation names no substation
    with pytest.raises(DataValidationError, match=r"outside \[0, 2\) for circuits \['a'\]"):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array([2, 1]))


@pytest.mark.parametrize("sub, message", [
    ([0, 1, 1], r"int64 array of shape \(3,\) for 2 circuits"),
    ([0, -1], r"outside \[0, 2\) for circuits \['b'\]"),
    ([0, 5], r"outside \[0, 2\) for circuits \['b'\]"),
    ([0.0, 1.0], r"float64 array of shape \(2,\)"),
])
def test_rejects_malformed_substation_of(sub, message):
    with pytest.raises(DataValidationError, match=message):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array(sub))


def test_substation_of_is_a_read_only_copy():
    sub = np.array([1, 0])
    topo = NetworkTopology(("a", "b"), ("s0", "s1"), sub)
    sub[0] = 0
    assert topo.substation_of.tolist() == [1, 0]
    assert topo.substation_of.dtype == np.int64
    assert not topo.substation_of.flags.writeable


def test_rejects_duplicate_ids():
    sub = np.array([0, 1])
    with pytest.raises(DataValidationError, match=r"duplicate circuit ids \['a'\]"):
        NetworkTopology(("a", "a"), ("s0", "s1"), sub)
    with pytest.raises(DataValidationError, match=r"duplicate substation ids \['s0'\]"):
        NetworkTopology(("a", "b"), ("s0", "s0"), sub)


def test_empty_substation_warns():
    # an empty substation is rejected where the topology is built, naming it
    with pytest.raises(DataValidationError, match=r"substations with no circuits: \['s1'\]"):
        NetworkTopology(("a", "b"), ("s0", "s1"), np.array([0, 0]))


def test_from_assignments_orders_substations_by_first_appearance():
    topo = NetworkTopology.from_assignments(
        ["x", "y", "z"], ["beta", "alpha", "beta"]
    )
    assert topo.substation_ids == ("beta", "alpha")
    assert topo.substation_of.tolist() == [0, 1, 0]


def test_csv_round_trip(tmp_path):
    topo = _topo([0, 1, 0, 2])
    path = tmp_path / "topo.csv"
    topo.to_csv(path)
    back = NetworkTopology.from_csv(path)
    assert back.circuit_ids == topo.circuit_ids
    assert back.substation_ids == topo.substation_ids
    assert np.array_equal(back.substation_of, topo.substation_of)


def test_csv_rejects_duplicates_and_bad_header(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("circuit_id,substation_id\na,s0\na,s1\n")
    with pytest.raises(DataValidationError):
        NetworkTopology.from_csv(p)
    q = tmp_path / "hdr.csv"
    q.write_text("circuit,substation\na,s0\n")
    with pytest.raises(DataValidationError):
        NetworkTopology.from_csv(q)


def test_csv_errors_name_the_file_line_of_the_row(tmp_path):
    # a quoted id that spans two lines moves every later row down a line
    p = tmp_path / "t.csv"
    p.write_text('circuit_id,substation_id\n"c\n1",s0\nc2\n')
    with pytest.raises(DataValidationError, match=r"t\.csv:4: expected 2 columns"):
        NetworkTopology.from_csv(p)
    p.write_text('circuit_id,substation_id\n"c\n1",s0\n\nc2,\n')
    with pytest.raises(DataValidationError, match=r"t\.csv:5: blank identifier"):
        NetworkTopology.from_csv(p)
