"""The categorical evaluator's argument plans (``el2._apply_plan``) against
the evaluator as it was before them, which built its einsum subscripts on
every call and took a call on basis arguments only through a one-operand
einsum.  Kept here as the reference: :class:`ReferenceEvaluator`."""

import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lie2alg import el2, exactla as xla

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
PRIMES = np.array(xla.RESIDUE_PRIMES[:2], dtype=np.int64)


class ReferenceEvaluator(el2._GammaEvaluator):
    """``_apply`` and ``_sum`` verbatim from before the plan table."""

    def __init__(self, e, rank, primes=None):
        super().__init__(e, rank, primes)
        self.lead = "" if primes is None else "y"

    def _apply(self, t: np.ndarray, *args):
        """t (out, m_1, ..., m_r) on r batched arguments, as one einsum whose
        tuple axes broadcast; None when an argument is zero."""
        axes, lead = "abcd"[: self.rank], self.lead
        subs, operands = [lead + "z"], [t]
        for slot, a in enumerate(args):
            if a is None:
                return None
            if isinstance(a, int):
                subs[0] += axes[a]
            else:
                subs[0] += "pqr"[slot]
                subs.append(lead + "pqr"[slot] + axes)
                operands.append(a)
        if len(operands) > 1:
            out = np.einsum(",".join(subs) + "->" + lead + "z" + axes, *operands)
            return out if self.mod is None else out % self.mod
        # basis arguments only: a transpose, with a unit axis for each tuple
        # axis no argument runs along
        used = sorted(set(args))
        out = np.einsum(subs[0] + "->" + lead + "z" + "".join(axes[p] for p in used), t)
        shape = [1] * self.rank
        for p, size in zip(used, out.shape[len(lead) + 1:]):
            shape[p] = size
        return out.reshape(out.shape[: len(lead) + 1] + tuple(shape))

    def _sum(self, n: int, *terms):
        """The sum of the terms that are not elided; zero when all are."""
        kept = [t for t in terms if t is not None]
        if not kept:
            lead = () if self.mod is None else self.mod.shape[:1]
            dtype = np.int64 if self.e.b00 is None else self.e.b00.dtype
            return np.zeros(lead + (n,) + (1,) * self.rank, dtype=dtype)
        if len(kept) == 1:
            return kept[0]
        total = sum(kept[1:], kept[0])
        return total if self.mod is None else total % self.mod


# Tuple axis p has size p + 2 and a batched argument in slot k has k + 2
# coordinates, so a misplaced axis shows in the shape as well as the values.
def sizes(rank):
    return tuple(p + 2 for p in range(rank))


def ints(rng, shape):
    """An object array of Python ints in [-9, 9], as the integer copy holds."""
    return np.array([rng.randint(-9, 9) for _ in range(math.prod(shape))], dtype=object).reshape(shape)


def as_mode(a, mode):
    """An object array of Python ints as the mode's operand: itself, int64,
    or its residues modulo PRIMES stacked on a leading axis."""
    if mode == "ints":
        return a
    if mode == "int64":
        return a.astype(np.int64)
    return np.stack([a.astype(np.int64) % p for p in PRIMES])


def operands(rank, pattern, mode, rng):
    """The tensor and the arguments of one call: a basis argument is its
    tuple axis, a batched one depends on every other tuple axis."""
    s = sizes(rank)
    shape, args = [3], []
    for slot, p in enumerate(pattern):
        if p is None:
            shape.append(slot + 2)
            args.append(None)
        elif p == "batched":
            shape.append(slot + 2)
            tuple_shape = [size if (q + slot) % 2 else 1 for q, size in enumerate(s)]
            args.append(as_mode(ints(rng, [slot + 2] + tuple_shape), mode))
        else:
            shape.append(s[p])
            args.append(p)
    return as_mode(ints(rng, shape), mode), args


def patterns(rank, arity):
    return itertools.product([None, "batched", *range(rank)], repeat=arity)


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert [type(x) for x in got.reshape(-1)] == [type(x) for x in want.reshape(-1)]


@pytest.mark.parametrize("mode", ["ints", "int64", "residues"])
def test_apply_matches_the_reference_on_every_pattern(mode):
    """Every argument pattern up to rank 4 and arity 3, with repeated basis
    axes, batched arguments and zero arguments, gives the reference's value,
    dtype, shape and entry types; a call on basis arguments only is a view
    of the tensor, as the one-operand einsum's result was."""
    rng = random.Random(26)
    primes = PRIMES if mode == "residues" else None
    for rank in range(1, 5):
        new, old = el2._GammaEvaluator(None, rank, primes), ReferenceEvaluator(None, rank, primes)
        for arity in (1, 2, 3):
            for pattern in patterns(rank, arity):
                t, args = operands(rank, pattern, mode, rng)
                got, want = new._apply(t, *args), old._apply(t, *args)
                assert_same(got, want)
                if got is not None and all(isinstance(a, int) for a in args):
                    assert np.shares_memory(got, t)


@pytest.mark.parametrize("mode", ["ints", "int64", "residues"])
def test_sum_matches_the_reference(mode):
    """``_sum`` keeps the terms that are not elided, adds them in order and
    reduces exactly when the reference does: with two or more terms.  All
    elided, it is zero of b00's dtype, or int64 when b00 is too wide for
    the int64 view."""
    rng = random.Random(27)
    rank, primes = 2, (PRIMES if mode == "residues" else None)
    for b00 in [as_mode(ints(rng, (1, 1, 1)), mode)] + ([None] if mode != "ints" else []):
        e = SimpleNamespace(b00=b00)
        new, old = el2._GammaEvaluator(e, rank, primes), ReferenceEvaluator(e, rank, primes)
        for count in range(4):
            for present in itertools.product((False, True), repeat=count):
                terms = [operands(rank, ("batched",), mode, rng)[1][0] * 7 if keep else None   # 7: out of
                         for keep in present]                                                 # (-p, p) until reduced
                assert_same(new._sum(2, *terms), old._sum(2, *terms))


@pytest.fixture(scope="module")
def verify_structures():
    """The seed-1 verify structures that the categorical check runs on,
    (3,1) to (4,4)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        return [s for s in workloads.el2_stream(1) if s.rung != "6x6"]
    finally:
        del sys.modules[spec.name]


def einsum_calls(e) -> int:
    """The np.einsum calls of one categorical check of ``e``."""
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "einsum", counted)
        el2.categorical_coherence_check(e)
    return len(calls)


def test_einsum_calls_per_categorical_check(verify_structures):
    """One categorical check on a seed-1 verify structure makes 41 einsum
    calls, where the reference evaluator made 91: the 50 calls on basis
    arguments only, all distinct, are transposes."""
    assert {s.rung for s in verify_structures} == {"3x1", "3x3", "4x4"}
    for s in verify_structures:
        assert [einsum_calls(s.e) for _ in range(2)] == [41, 41]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(el2, "_GammaEvaluator", ReferenceEvaluator)
            assert einsum_calls(s.e) == 91


def test_plan_table_is_bounded_by_the_patterns(el2_corpus, verify_structures):
    """The table holds at most one plan per (rank, residue mode, pattern)
    that the diagrams can ask for: an argument of d, a bracket or alt, or
    jac (arity 1, 2, 3) is one of the rank's tuple axes or batched."""
    el2._apply_plan.cache_clear()
    for e in [e for _, e in el2_corpus] + [s.e for s in verify_structures]:
        el2.categorical_coherence_check(e)
    ranks = {rank for _, rank, _, _ in el2.CATEGORICAL_DIAGRAMS}
    bound = 2 * sum((rank + 1) ** arity for rank in ranks for arity in (1, 2, 3))
    assert 0 < el2._apply_plan.cache_info().currsize <= bound
