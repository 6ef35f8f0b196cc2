"""The tensor checker's identities as one table (``el2.IDENTITIES``), run by
``exactla.SignedSum``: what is read off the table (rank, terms, powers of
den, cohom's cocycle powers) against the values the package stated by
hand before, the evaluator's refusals, its inputs left as they were, and
its einsum calls per check."""

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_tensor
from lie2alg import cohom, dkcore, el2, exactla as xla

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# The rank and terms of each identity, and its power of den, as they were
# written by hand next to the formulas.
STATED_TERMS = {
    "chain.b01": (2, (("d", "b01"), ("b00", "d"))),
    "chain.b10": (2, (("d", "b10"), ("b00", "d"))),
    "chain.derived": (2, (("b01", "d"), ("b10", "d"))),
    "skew.00": (2, (("b00",), ("b00",), ("d", "alt"))),
    "skew.10": (2, (("b10",), ("b01",), ("alt", "d"))),
    "skew.01": (2, (("b01",), ("b10",), ("alt", "d"))),
    "jacobi.000": (3, (("b00", "b00"),) * 3 + (("d", "jac"),)),
    "jacobi.100": (3, (("b10", "b00"), ("b10", "b10"), ("b01", "b10"), ("jac", "d"))),
    "jacobi.010": (3, (("b01", "b10"), ("b10", "b01"), ("b10", "b00"), ("jac", "d"))),
    "jacobi.001": (3, (("b01", "b01"), ("b01", "b00"), ("b01", "b01"), ("jac", "d"))),
    "coh.bracket-jacobiator": (4, (("b10", "jac"), ("jac", "b00")) + (("b01", "jac"),) * 3
                               + (("jac", "b00"),) * 5),
    "coh.jacobiator-sym12": (3, (("jac",), ("jac",), ("b10", "alt"))),
    "coh.jacobiator-sym23": (3, (("jac",), ("jac",), ("b01", "alt"), ("alt", "b00"), ("alt", "b00"))),
    "coh.alternator-bracket": (3, (("alt", "b00"),) * 2),
    "red.alternator-left": (3, (("b10", "alt"),) * 2),
    "red.alternator-right": (3, (("b01", "alt"),) * 2),
    "red.d-alternator": (2, (("d", "alt"),) * 2),
    "red.alternator-exact": (2, (("alt", "d"),) * 2),
}
STATED_POWERS = {
    "chain.b01": 3, "chain.b10": 3, "chain.derived": 3,
    "skew.00": 2, "skew.10": 2, "skew.01": 2,
    "jacobi.000": 4, "jacobi.100": 4, "jacobi.010": 4, "jacobi.001": 4,
    "coh.bracket-jacobiator": 5, "coh.jacobiator-sym12": 3, "coh.jacobiator-sym23": 3,
    "coh.alternator-bracket": 3,
    "red.alternator-left": 3, "red.alternator-right": 3, "red.d-alternator": 2, "red.alternator-exact": 2,
}


def test_read_off_values_equal_the_stated_ones():
    assert list(el2.RESIDUAL_TERMS) == list(STATED_TERMS)
    for name, (rank, terms) in STATED_TERMS.items():
        got_rank, got_terms = el2.RESIDUAL_TERMS[name]
        assert got_rank == rank and Counter(got_terms) == Counter(terms), name
    assert el2.RESIDUAL_POWERS == STATED_POWERS
    assert cohom._COCYCLE_POWERS == (3, 2, 2, 2)


def compile_table(table):
    return {name: xla.SignedSum(groups, dkcore.TENSOR_PATHS) for name, groups in table.items()}


def test_power_derivation_refuses_a_renamed_tensor():
    scale = dict(zip(("d", *el2.AXES), el2._POWERS))
    assert {name: row.power(scale) for name, row in compile_table(el2.IDENTITIES).items()} == el2.RESIDUAL_POWERS
    refused = 0
    # renaming one tensor of a row of one group renames it in every term
    for name, groups in [(name, groups) for name, groups in el2.IDENTITIES.items() if len(groups) > 1]:
        for k, (placements, subscripts, *names) in enumerate(groups):
            for slot, t in enumerate(names):
                renamed = names[:slot] + ["jac" if t != "jac" else "b00"] + names[slot + 1:]
                table = dict(el2.IDENTITIES)
                table[name] = groups[:k] + ((placements, subscripts, *renamed),) + groups[k + 1:]
                rows = compile_table(table)
                for other in set(table) - {name}:
                    rows[other].power(scale)
                with pytest.raises(ValueError, match="unequal powers"):
                    rows[name].power(scale)
                refused += 1
    assert refused == sum(len(g) - 2 for groups in el2.IDENTITIES.values() if len(groups) > 1 for g in groups)
    assert refused == 79


@pytest.mark.parametrize("groups", [
    (("+kxy", "kxy->kxy", "b00"), ("+kyx", "km,mxy->kyx", "d", "alt")),        # another output
    (("+kxy +kxx", "kxy->kxy", "b00"),),                                      # not a permutation
    (("+kxy kyx", "kxy->kxy", "b00"),),                                       # no sign
    (("+kxy", "kxy->kxy", "b00"), ("-kxyz", "km,mxy->kxy", "d", "alt")),      # another rank
])
def test_malformed_rows_are_refused(groups):
    with pytest.raises(xla.ShapeError):
        xla.SignedSum(groups, dkcore.TENSOR_PATHS)


def random_structure(rng, n0, n1):
    dims = (n0, n1)
    tensors = {name: rand_tensor(rng, *(dims[k] for k in axes), lo=1) for name, axes in el2.AXES.items()}
    return el2.zero_el2(n0, n1, rand_tensor(rng, n0, n1, lo=1), **tensors)


def test_rows_leave_their_inputs_unchanged():
    """On a writeable int64 view and on a writeable residue stack, every row
    leaves each tensor it reads as it was and returns a writeable array that
    shares no memory with any of them; a float tensor is refused."""
    rng = random.Random(28)
    for n0, n1 in ((3, 2), (2, 3), (1, 1)):
        ints, _ = el2._integer_copy(random_structure(rng, n0, n1))
        stack = iter(xla.residue_stack(el2._tensors(ints), xla.RESIDUE_PRIMES[:2]))
        views = [el2._view(ints, lambda t, k: t.astype(np.int64)), el2._view(ints, lambda t, k: next(stack))]
        for view in views:
            inputs = el2._tensors(view)
            assert all(t.flags.writeable and np.count_nonzero(t) for t in inputs)
            before = [t.copy() for t in inputs]
            for name, row in el2._ROWS.items():
                r = row(view)
                assert r.flags.writeable and r.dtype == np.int64, name
                assert not any(np.may_share_memory(r, t) for t in inputs), name
                assert all(np.array_equal(t, b) for t, b in zip(inputs, before)), name
    floats = el2._view(ints, lambda t, k: t.astype(float))
    for name, row in el2._ROWS.items():
        with pytest.raises(xla.ShapeError):
            row(floats)


@pytest.fixture(scope="module")
def verify_structures():
    """The seed-1 verify structures, (3,1) to (6,6)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        return workloads.el2_stream(1)
    finally:
        del sys.modules[spec.name]


def test_einsum_calls_per_check_el2(verify_structures, monkeypatch):
    """One check_el2 of a seed-1 verify structure makes 54 einsum calls:
    one per group that contracts or relabels, one per relabelled
    placement."""
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    assert {s.rung for s in verify_structures} == {"3x1", "3x3", "4x4", "6x6"}
    for s in verify_structures:
        calls.clear()
        assert el2.check_el2(s.e).passed
        assert len(calls) == 54, s.label
