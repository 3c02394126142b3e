"""Deterministic random instance generation for the verification battery.

All kinds are driven by random.Random(seed), so a fixed seed yields
identical bytes.  Size guards keep everything desk-sized: truncation at
most 6, generating dimensions at most 4 per cardinality, integer
entries in [-3, 3].
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .fimodule import (
    FBData, FIModule, FIMorphism, _free_coker, direct_sum, free_fi_module,
    free_morphism, representable, CokernelTorsionError,
)
from .complexes import FIComplex, complex_from_morphisms
from .io import serialize
from .linalg import Matrix, QQ, ZZ, _coerce, block_matrix, kernel_basis

MAX_TRUNCATION = 6
MAX_FB_DIM = 4
# a draw picks at most *_MAX_GENS free generators of cardinality at most
# *_MAX_CARD per term; a complex has COMPLEX_TERMS terms
COKER_MAX_CARD, COKER_MAX_GENS = 2, 3
COMPLEX_TERMS, COMPLEX_MAX_CARD, COMPLEX_MAX_GENS = 3, 2, 2
ENTRY_LO, ENTRY_HI = -3, 3


def _guard(trunc, dims=None):
    if trunc > MAX_TRUNCATION or trunc < 1:
        raise ValueError("truncation %d outside 1..%d" % (trunc, MAX_TRUNCATION))
    if dims is not None and any(d > MAX_FB_DIM or d < 0 for d in dims):
        raise ValueError("generating dims must lie in 0..%d" % MAX_FB_DIM)


def _entry(rng):
    return rng.randint(ENTRY_LO, ENTRY_HI)


def _perm_matrix(ring, k, i):
    """Adjacent transposition s_i acting on coordinates of the natural rep."""
    rows = [{} for _ in range(k)]
    for t in range(k):
        s = t
        if t == i - 1:
            s = i
        elif t == i:
            s = i - 1
        rows[s][t] = 1
    return Matrix(ring, k, k, rows)


def _summand_menu(k):
    """(label, dim) choices for an S_k-representation summand."""
    menu = [("trivial", 1)]
    if k >= 2:
        menu.append(("sign", 1))
    if 2 <= k <= MAX_FB_DIM:
        menu.append(("natural", k))
    return menu


def _summand_trans(label, ring, k, i):
    if label == "trivial":
        return Matrix.from_rows(ring, [[1]])
    if label == "sign":
        return Matrix.from_rows(ring, [[-1]])
    if label == "natural":
        return _perm_matrix(ring, k, i)
    raise ValueError(label)


def random_fbdata(rng, ring, trunc, top=None) -> FBData:
    """FB-data with honest S_k-actions built from small standard summands,
    of dimension at most MAX_FB_DIM in each cardinality up to `top`."""
    _guard(trunc)
    if top is None:
        top = min(trunc, 3)
    labels = []
    for k in range(trunc + 1):
        picks = []
        if k <= top:
            budget = MAX_FB_DIM
            for _ in range(rng.randint(0, 2)):
                cands = [(lb, d) for lb, d in _summand_menu(k) if d <= budget]
                if not cands:
                    break
                lb, d = rng.choice(cands)
                picks.append(lb)
                budget -= d
        labels.append(picks)
    if all(not p for p in labels):
        labels[rng.randint(0, top)] = ["trivial"]
    sizes = [[dict(_summand_menu(k))[lb] for lb in picks]
             for k, picks in enumerate(labels)]
    trans = []
    for k, picks in enumerate(labels):
        trans.append(tuple(
            block_matrix(ring, sizes[k], sizes[k],
                         {(b, b): _summand_trans(lb, ring, k, i)
                          for b, lb in enumerate(picks)})
            for i in range(1, k)))
    return FBData(ring, trunc, tuple(map(sum, sizes)), tuple(trans))


def gen_free(seed, ring=ZZ, trunc=4, dims=None):
    """(module, fbdata).  Explicit dims get trivial actions; else random ones."""
    _guard(trunc, dims)
    rng = random.Random("free:%s" % seed)
    if dims is not None:
        dims = tuple(dims) + (0,) * (trunc + 1 - len(dims))
        if len(dims) != trunc + 1:
            raise ValueError("dims longer than truncation + 1")
        X = FBData(ring, trunc, dims)
    else:
        X = random_fbdata(rng, ring, trunc)
    return free_fi_module(X, name="free"), X


def _free_source(rng, max_card, max_gens):
    return sorted(rng.randint(0, max_card) for _ in range(rng.randint(1, max_gens)))


@dataclass(frozen=True)
class CokerInstance:
    module: FIModule
    source_cards: tuple
    target_data: FBData
    ring: str
    downgraded: bool = False
    _presented: Callable = field(default=None, repr=False, compare=False)

    @cached_property
    def presentation(self) -> FIMorphism:
        """The map (+) M(m_i) -> M(X) whose cokernel is `module`; its
        source module is built when this is first read."""
        return self._presented()

    def notes(self):
        out = ["# coker: source cards %s, target dims %s"
               % (list(self.source_cards), list(self.target_data.dims))]
        if self.downgraded:
            out.append("# note: Z cokernel had torsion at every attempt; "
                       "ring downgraded to Q")
        return out


def gen_coker(seed, ring=QQ, trunc=5, retries=4) -> CokerInstance:
    """Cokernel of a random map (+) M(m_i) -> M(X).

    Over Z a torsion cokernel cannot be represented; such draws are
    retried with a derived seed, and after `retries` misses the last draw
    is made over Q (the downgrade is recorded on the instance).
    """
    _guard(trunc)
    if retries < 0:
        raise ValueError("retries %d is negative" % retries)
    for attempt in range(retries + 1):
        attempt_ring = ring if attempt < retries else QQ
        rng = random.Random("coker:%s:%d" % (seed, attempt))
        X = random_fbdata(rng, attempt_ring, trunc, top=min(COKER_MAX_CARD, trunc))
        target = free_fi_module(X, name="target")
        cards = _free_source(rng, COKER_MAX_CARD, COKER_MAX_GENS)
        images = []
        for m in cards:
            images.append([_entry(rng) for _ in range(target.dims[m])])
        try:
            presented, C = _free_coker(cards, target, images)
        except CokernelTorsionError:
            continue
        return CokerInstance(C, tuple(cards), X, attempt_ring,
                             downgraded=(attempt_ring != ring), _presented=presented)
    raise AssertionError("unreachable: Q cokernels always exist")


def gen_complex(seed, ring=QQ, trunc=4) -> FIComplex:
    """A complex of free modules (+) M(m) with genuinely composing zero maps.

    del_1 is a random map of frees; each next differential sends its
    generators into the exact kernel of the previous one, drawn as small
    integer combinations of a kernel basis.
    """
    _guard(trunc)
    rng = random.Random("complex:%s" % seed)
    cards = [_free_source(rng, COMPLEX_MAX_CARD, COMPLEX_MAX_GENS)
             for _ in range(COMPLEX_TERMS)]
    mods = [direct_sum(*[representable(m, trunc, ring) for m in cards[0]])]
    diffs = []
    prev = None  # del into mods[t - 1]
    for t in range(1, COMPLEX_TERMS):
        target = mods[t - 1]
        images = []
        for m in cards[t]:
            if prev is None:
                vec = [_entry(rng) for _ in range(target.dims[m])]
            else:
                basis = kernel_basis(prev.levels[m])
                vec = [0] * target.dims[m]
                for col in basis:
                    c = rng.randint(-2, 2)
                    if c:
                        vec = [a + c * b for a, b in zip(vec, col)]
            images.append([_coerce(ring, x) for x in vec])
        f = free_morphism(cards[t], target, images)
        mods.append(f.source)
        diffs.append(f)
        prev = f
    return complex_from_morphisms(mods, diffs)


def generate(kind, seed, ring=None, trunc=None, dims=None) -> str:
    """Serialized instance of the requested kind, deterministic in the seed.

    `dims` sets the generator dims of kind 'free' and is refused otherwise.
    """
    if kind == "free":
        V, X = gen_free(seed, ring=ring or ZZ, trunc=4 if trunc is None else trunc,
                        dims=dims)
        header = "# free module, seed %s, generator dims %s\n" % (seed, list(X.dims))
        return header + serialize(V)
    if dims is not None and kind in ("coker", "complex"):
        raise ValueError("dims applies to kind 'free' only, not %r" % (kind,))
    if kind == "coker":
        inst = gen_coker(seed, ring=ring or QQ, trunc=5 if trunc is None else trunc)
        header = "".join(line + "\n" for line in inst.notes())
        return header + serialize(inst.module)
    if kind == "complex":
        W = gen_complex(seed, ring=ring or QQ, trunc=4 if trunc is None else trunc)
        header = "# complex of free modules, seed %s\n" % (seed,)
        return header + serialize(W)
    raise ValueError("unknown kind %r (free, coker, complex)" % (kind,))
