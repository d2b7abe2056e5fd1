"""Invariant checks: the inventory of `raise AssertionError` sites in
`src/aopseq`, the test that makes each one fire, and those firing tests for
the sites no other test reaches."""

import ast
from pathlib import Path

import pytest

from aopseq import cyclotomic, quaternion, scatter
from aopseq.quaternion import CONJ, MUL, VEC
from aopseq.scatter import BiQuadraticSpec, trace_crosscorrelation

SRC = Path(__file__).resolve().parents[1] / "src" / "aopseq"
TESTS = Path(__file__).resolve().parent

# a longer message is cut to its words that fit in this many characters
PREFIX = 32

# (module, function, message prefix with each formatted field as {}, the
# test that makes the site fire), in source order per module.  A new site
# comes with a firing test and a row here.
SITES = [
    ("cyclotomic", "_poly_divmod", "divisor {} is not monic",
     "test_cyclotomic.py::test_non_monic_divisor_raises"),
    ("cyclotomic", "cyclotomic_polynomial", "non-exact division for order {}",
     "test_invariants.py::test_non_exact_cyclotomic_division_raises"),
    ("indexfn", "column_duplication_witness", "columns 0 and {} differ at row",
     "test_indexfn.py::test_periodicity_certificates_fail_off_the_integers"),
    ("quaternion", "structure_check", "table product {}*{} = {},",
     "test_invariants.py::test_swapped_table_entry_raises"),
    ("quaternion", "structure_check", "conj({}*{}) != conj({})*conj({})",
     "test_invariants.py::test_identity_conjugation_raises"),
    ("quaternion", "structure_check", "{} * its conjugate is not 1",
     "test_invariants.py::test_rotated_conjugation_raises"),
    ("quaternion", "structure_check", "{} and {} do not anticommute",
     "test_invariants.py::test_identity_negation_raises"),
    ("quaternion", "structure_check", "associativity fails at ({}, {},",
     "test_invariants.py::test_non_associative_table_raises"),
    ("scatter", "trace_crosscorrelation", "factor product drifted from the",
     "test_invariants.py::test_perturbed_root_raises"),
    ("scatter", "trace_crosscorrelation", "walk endpoint {} disagrees with",
     "test_invariants.py::test_conjugated_roots_raise"),
    ("search", "_spot_check", "direct array differs from the",
     "test_search.py::test_direct_array_off_its_tile_extension_raises"),
    ("search", "_spot_check", "full check {} {}{} for vector",
     "test_search.py::test_pruned_width_accepted_by_the_full_check_raises"),
    ("search", "_spot_check", "recorded hit {} fails the public",
     "test_search.py::test_recorded_hit_failing_the_public_check_raises"),
    ("search", "_index_function_block", "index {} reads verdicts {}",
     "test_search.py::test_wrong_shared_row_index_map_raises"),
    ("search", "_raw_quaternion_block", "packed-weight funnel finds {}",
     "test_search.py::test_flipped_funnel_weight_raises"),
    ("search", "_check_orbit_sample", "orbit expansion and the",
     "test_search.py::test_raw_quaternion_sample_mismatch_raises"),
    ("search", "run_search", "{} tails enumerated, {} counted",
     "test_search.py::test_tail_count_off_by_one_raises"),
]


def _template(node) -> str:
    """A message expression with each formatted field written as {}."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ast.unparse(node)


def assertion_sites() -> list[tuple[str, str, str]]:
    """(module, enclosing function, message prefix) of every `raise
    AssertionError` in the package, in source order per module."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                called = isinstance(exc, ast.Call)
                if getattr(exc.func if called else exc, "id", None) == "AssertionError":
                    message = _template(exc.args[0]) if called and exc.args else ""
                    if len(message) > PREFIX:
                        message = message[: PREFIX + 1].rsplit(" ", 1)[0]
                    sites.append((module, ".".join(scope), message))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, ())
    return sites


def test_assertion_sites_match_the_inventory():
    assert assertion_sites() == [site[:3] for site in SITES]
    assert len(SITES) == 17


def test_every_site_names_a_test_that_exists():
    for *_, test in SITES:
        file, name = test.split("::")
        tree = ast.parse((TESTS / file).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_non_exact_cyclotomic_division_raises(monkeypatch):
    """A division by a proper divisor's cyclotomic polynomial that leaves a
    remainder.  The memo is cleared first, so that no cached polynomial
    hides the patched division; a polynomial it divides raises before it
    is cached."""
    real = cyclotomic._poly_divmod
    monkeypatch.setattr(cyclotomic, "_poly_divmod", lambda num, den: (real(num, den)[0], [1]))
    cyclotomic.cyclotomic_polynomial.cache_clear()
    with pytest.raises(AssertionError, match="non-exact division for order 4 by 1"):
        cyclotomic.cyclotomic_polynomial(4)


def _table_with(entries):
    table = [list(row) for row in MUL]
    for (a, b), product in entries.items():
        table[a][b] = product
    return tuple(map(tuple, table))


def test_swapped_table_entry_raises(monkeypatch):
    """i*j and j*i swapped (k and -k) disagree with the Hamilton product."""
    monkeypatch.setattr(quaternion, "MUL", _table_with({(2, 4): MUL[4][2], (4, 2): MUL[2][4]}))
    with pytest.raises(AssertionError, match=r"table product i\*j = -k, 4-vector gives k"):
        quaternion.structure_check()


def test_identity_conjugation_raises(monkeypatch):
    """The identity is no anti-automorphism of a non-abelian group."""
    monkeypatch.setattr(quaternion, "CONJ", tuple(range(8)))
    with pytest.raises(AssertionError, match=r"conj\(i\*j\) != conj\(j\)\*conj\(i\)"):
        quaternion.structure_check()


def test_rotated_conjugation_raises(monkeypatch):
    """Conjugation after the automorphism i -> j -> k -> i is still an
    anti-automorphism, so only the norm site sees that i times it is -k."""
    rotate = (0, 1, 4, 5, 6, 7, 2, 3)
    monkeypatch.setattr(quaternion, "CONJ", tuple(CONJ[rotate[u]] for u in range(8)))
    with pytest.raises(AssertionError, match="i \\* its conjugate is not 1"):
        quaternion.structure_check()


def test_identity_negation_raises(monkeypatch):
    monkeypatch.setattr(quaternion, "NEG", tuple(range(8)))
    with pytest.raises(AssertionError, match="i and j do not anticommute"):
        quaternion.structure_check()


def test_non_associative_table_raises(monkeypatch):
    """1*(-1) = (-1)*1 = 1 keeps conjugation an anti-automorphism, every
    norm 1 and the bases anticommuting.  Only associativity is left to
    fail, and only once the 4-vector product agrees with the table."""
    table = _table_with({(0, 1): 0, (1, 0): 0})
    unit = {VEC[u]: u for u in range(8)}
    monkeypatch.setattr(quaternion, "MUL", table)
    monkeypatch.setattr(quaternion, "vector_mul", lambda p, q: VEC[table[unit[p]][unit[q]]])
    with pytest.raises(AssertionError, match="associativity fails at"):
        quaternion.structure_check()


# n = 2, K = 3: column 0 carries 2 i^2 + 2 i and column 1 is 0; their
# cross-correlation is 3 - sqrt(3) i at every shift
SCATTER_SPEC = BiQuadraticSpec(2, 3, (2, 0), (2, 0), (0, 0), 6)


def test_perturbed_root_raises(monkeypatch):
    """A root table with w^0 off by 0.1: the row-0 factors multiply to
    1.21 where the direct term reads 1.1."""
    roots = list(scatter.root_table(6))
    roots[0] += 0.1
    monkeypatch.setattr(scatter, "root_table", lambda order: roots)
    with pytest.raises(AssertionError, match="factor product drifted from the direct term"):
        trace_crosscorrelation(SCATTER_SPEC, 0, 1, 1)


def test_conjugated_roots_raise(monkeypatch):
    """Conjugated roots still multiply as roots do, so every factor product
    matches its direct term, but the walk sums the conjugate of a
    non-real correlation."""
    conjugated = [w.conjugate() for w in scatter.root_table(6)]
    monkeypatch.setattr(scatter, "root_table", lambda order: conjugated)
    with pytest.raises(AssertionError, match="walk endpoint .* disagrees with the exact sum"):
        trace_crosscorrelation(SCATTER_SPEC, 0, 1, 1)
