"""Unit quaternion group: table oracles, frozen profiles, convention split."""

import itertools

import pytest

from aopseq.quaternion import (
    CONJ,
    MUL,
    NEG,
    QuaternionSequence,
    VEC,
    QuatUnit,
    quat_autocorrelate,
    quat_is_perfect,
    structure_check,
    vector_mul,
)
from aopseq.search import SearchSpec, run_search


def test_structure_check_counts():
    counts = structure_check()
    assert counts == {
        "pairs": 64,
        "conj_pairs": 64,
        "norms": 8,
        "anticommute": 6,
        "triples": 512,
    }


def q(sym):
    return QuatUnit.from_symbol(sym)


def test_multiplication_oracles():
    assert q("i") * q("j") == q("k")
    assert q("j") * q("i") == q("-k")
    assert q("i") * q("i") == q("-1")
    assert q("j") * q("j") == q("-1")
    assert q("k") * q("k") == q("-1")
    assert q("j") * q("k") == q("i")
    assert q("k") * q("j") == q("-i")
    assert q("k") * q("i") == q("j")
    assert q("i") * q("k") == q("-j")
    assert q("-1") * q("-1") == q("1")
    assert q("-i") * q("j") == q("-k")


def test_conjugation_and_negation():
    assert q("1").conjugate() == q("1")
    assert q("-1").conjugate() == q("-1")
    for sym in ("i", "j", "k"):
        assert q(sym).conjugate() == -q(sym)
        assert q(sym) * q(sym).conjugate() == q("1")
    assert -q("-j") == q("j")


def test_table_agrees_with_vector_product():
    from aopseq.quaternion import VEC

    for u in range(8):
        for v in range(8):
            w = MUL[u][v]
            assert vector_mul(VEC[u], VEC[v]) == VEC[w]
    for u in range(8):
        w, x, y, z = VEC[u]
        assert VEC[CONJ[u]] == (w, -x, -y, -z)
        assert NEG[NEG[u]] == u
        assert MUL[u][CONJ[u]] == 0  # q * conj(q) = 1


def test_symbol_round_trip():
    seq = QuaternionSequence.from_symbols(["1", "-k", "j", "-i"])
    assert seq.symbols() == ("1", "-k", "j", "-i")
    assert seq.length == 4
    with pytest.raises(ValueError):
        QuaternionSequence.from_symbols(["x"])
    with pytest.raises(ValueError):
        QuaternionSequence(())


def test_real_sequence_profile_frozen():
    """[1, 1, 1, -1] behaves like the binary case: profile (4,0,0,0) then zeros."""
    seq = QuaternionSequence.from_symbols(["1", "1", "1", "-1"])
    for conv in ("right", "left"):
        prof = quat_autocorrelate(seq, conv)
        assert prof[0] == (4, 0, 0, 0)
        assert prof[1] == (0, 0, 0, 0)
        assert prof[2] == (0, 0, 0, 0)
        assert prof[3] == (0, 0, 0, 0)
        assert quat_is_perfect(seq, conv)


def test_imaginary_sequence_perfect():
    seq = QuaternionSequence.from_symbols(["i", "j", "i", "-j"])
    assert quat_is_perfect(seq, "right")
    prof = quat_autocorrelate(seq, "right")
    assert prof[0] == (4, 0, 0, 0)


def test_constant_sequence_not_perfect():
    seq = QuaternionSequence.from_symbols(["1", "1"])
    assert not quat_is_perfect(seq, "right")
    assert quat_autocorrelate(seq, "right")[1] == (2, 0, 0, 0)


def test_conventions_differ():
    """[i, j, 1]: right gives -i + j - k at shift 1, left gives i - j - k."""
    seq = QuaternionSequence.from_symbols(["i", "j", "1"])
    right = quat_autocorrelate(seq, "right")
    left = quat_autocorrelate(seq, "left")
    assert right[1] == (0, -1, 1, -1)
    assert left[1] == (0, 1, -1, -1)
    assert right != left


def test_peak_is_length():
    seq = QuaternionSequence.from_symbols(["-k", "j", "i", "-1", "k"])
    for conv in ("right", "left"):
        assert quat_autocorrelate(seq, conv)[0] == (5, 0, 0, 0)


def test_right_profile_hermitian_symmetry():
    """theta(L - tau) is the quaternion conjugate of theta(tau): conjugation
    reverses products, so summing over the index shift flips the sign of the
    imaginary components."""
    seq = QuaternionSequence.from_symbols(["i", "-j", "k", "1", "-i", "j"])
    prof = quat_autocorrelate(seq, "right")
    L = seq.length
    for tau in range(1, L):
        w, x, y, z = prof[tau]
        assert prof[L - tau] == (w, -x, -y, -z)


def test_unknown_convention_rejected():
    seq = QuaternionSequence.from_symbols(["1", "i"])
    with pytest.raises(ValueError):
        quat_autocorrelate(seq, "middle")
    with pytest.raises(ValueError):
        quat_is_perfect(seq, "middle")


def reference_profile(units, convention):
    """Every autocorrelation value term by term from MUL, CONJ and VEC,
    without the product table the module reads."""
    length = len(units)
    values = []
    for tau in range(length):
        total = [0, 0, 0, 0]
        for i in range(length):
            a, b = units[i], units[(i + tau) % length]
            prod = MUL[a][CONJ[b]] if convention == "right" else MUL[CONJ[a]][b]
            total = [t + v for t, v in zip(total, VEC[prod])]
        values.append(tuple(total))
    return tuple(values)


def profile_is_perfect(seq, convention):
    return all(v == (0, 0, 0, 0) for v in reference_profile(seq.indices, convention)[1:])


def test_is_perfect_agrees_with_profile_exhaustively():
    """Every sequence of length 1..5 in both conventions (74,896 cases):
    the early-stopping check agrees with the term-by-term reference, and so
    does the full profile up to length 4."""
    cases = perfect = 0
    for length in range(1, 6):
        for units in itertools.product(range(8), repeat=length):
            seq = QuaternionSequence(units)
            for convention in ("right", "left"):
                got = quat_is_perfect(seq, convention)
                assert got == profile_is_perfect(seq, convention), (units, convention)
                if length <= 4:
                    assert quat_autocorrelate(seq, convention) == reference_profile(
                        units, convention)
                cases += 1
                perfect += got
    assert cases == 74896
    assert perfect > 0


def test_length_eight_hits_with_one_unit_negated_fail():
    """Every perfect sequence of length 8 is perfect in both conventions,
    and negating any one of its units makes it fail both checks."""
    report = run_search(SearchSpec(family="raw-quaternion", length=8, hit_limit=8192))
    assert len(report.hits) == report.hits_total == 1536
    for hit in report.hits:
        assert hit["conventions"] == ["right", "left"]
        units = QuaternionSequence.from_symbols(hit["symbols"]).indices
        for p in range(8):
            seq = QuaternionSequence(units[:p] + (NEG[units[p]],) + units[p + 1 :])
            for convention in ("right", "left"):
                assert not quat_is_perfect(seq, convention)
                assert not profile_is_perfect(seq, convention)
