"""Block decomposition of trajectories between consecutive beta values.

A *block* is the stretch of trajectory from one beta = 4k_in + 2 to the next
beta = 4k_out + 2: the chain climbs to alpha = 4h + 1 in 2m+1 steps, one odd
step lands on gamma = 4g + 4 with g = 3h, and e halvings (e >= 1) fall back
to a beta.  The indices obey

    k_out = k_in * 3^(m+1) / 2^(e+m+1)
          + (3^(m+1) - 2^m - 2^(e+m)) / 2^(e+m+1)

an affine map k_out = A*k_in + B whose denominators clear exactly on real
blocks.  Iterating blocks walks beta to beta; the fixed point k = 0 is the
trivial loop 2 -> 1 -> 4 -> 2.  The walk has one encoding, ``_blocks_from``,
which every decomposition, the sweep kernel and ``cycles._simulate`` read.

The recurrence has one encoding here, the cleared-integer ``block_step``.
A state (P, T, S) starts at ``START`` = (1, 1, 0), and block (m, e) maps it
to

    (P * 2^(e+m+1),  T * 3^(m+1),  S * 3^(m+1) + c * P),
    c = 3^(m+1) - 2^m - 2^(e+m),

so that after n blocks k_n = (T * k_0 + S) / P.  ``recurrence_holds``
returns whether a real block balances one step; the blocks sweep kernel,
``block_counterexample``, asks it of every block it walks.
``block_state`` folds the step over a checked parameter list, and the
cycle search (``cycles``) takes it once per first block.  The last-block
lemma, derived from the step, finds the last blocks that close a state
without taking each step, and steps a node's children, those that leave
room for one more block, from the same quantities; below a first block it
keeps to necklaces, the lists least among their rotations.  Every search
enters it through ``_closing_lists``; at depth 1 that gives the last
blocks that close one state.  The step also
makes sense for *formal* parameter lists (m_j, e_j) that need not come
from a real trajectory, for which (T * k_0 + S) / P need not be an
integer; the cycle search exploits them.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .beta_chain import chain_path, chain_residues, solve_beta_chain, v2
from .core import DEFAULT_STEP_LIMIT
from .errors import DomainError, IdentityViolation, LimitExceeded

__all__ = [
    "Block",
    "make_block",
    "block_path",
    "decompose",
    "decompose_until_trivial",
    "block_step",
    "block_state",
    "recurrence_holds",
    "block_counterexample",
]


class Block(NamedTuple):
    k_in: int
    m: int
    h: int
    g: int
    e: int
    k_out: int

    @property
    def gamma(self) -> int:
        return 4 * self.g + 4

    @property
    def steps(self) -> int:
        return 2 * self.m + self.e + 2


def make_block(k_in: int) -> Block:
    _, m, h = solve_beta_chain(k_in)
    g = 3 * h
    e = v2(4 * g + 4) - 1
    k_out = ((4 * g + 4 >> e) - 2) >> 2
    return Block(k_in, m, h, g, e, k_out)


def block_path(b: Block) -> list[int]:
    """All 2m+e+3 trajectory values of the block, from the beta 4k_in + 2
    to the next beta, 4k_out + 2, inclusive, generated arithmetically rather
    than by iterating the map."""
    path = chain_path(b.k_in, b.m)
    gam = b.gamma
    for j in range(b.e + 1):
        path.append(gam >> j)
    return path


def _blocks_from(k: int) -> Iterator[Block]:
    """The real blocks from beta = 4*k + 2, without end; ``make_block`` is
    looked up per block, so a patched ``blocks.make_block`` reaches it."""
    while True:
        b = make_block(k)
        yield b
        k = b.k_out


def decompose(k0: int, n_blocks: int) -> list[Block]:
    """The first n_blocks blocks of the walk from beta = 4*k0 + 2, in order;
    each block's k_out is the next one's k_in.

    Once k reaches 0 the list keeps repeating the trivial block
    (m=0, e=1, k_out=0): the walk has entered the 2 -> 1 -> 4 -> 2 loop.
    """
    if n_blocks < 1:
        raise DomainError(f"n_blocks must be >= 1, got {n_blocks}")
    return list(islice(_blocks_from(k0), n_blocks))


def decompose_until_trivial(k0: int, max_blocks: int = 10**5) -> list[Block]:
    """The blocks of the walk from k0, in order, up to and including the
    first whose k_out is the fixed point 0.

    Raises DomainError for ``max_blocks < 1``, and LimitExceeded (with the
    list of blocks so far as ``partial``) if k never hits 0 within
    max_blocks — which for any honest k0 just means the budget was too small.
    """
    if max_blocks < 1:
        raise DomainError(f"max_blocks must be >= 1, got {max_blocks}")
    out: list[Block] = []
    for b in islice(_blocks_from(k0), max_blocks):
        out.append(b)
        if b.k_out == 0:
            return out
    msg = f"no trivial block after {max_blocks} blocks from k0={k0}"
    raise LimitExceeded(msg, partial=out)


State = tuple[int, int, int]
Blocks = tuple[tuple[int, int], ...]  # block parameters (m, e), in walk order
START: State = (1, 1, 0)  # the state of no blocks: k_0 = (1 * k_0 + 0) / 1


def block_step(state: State, m: int, e: int) -> State:
    """The cleared state (P, T, S) after one more block (m, e)."""
    p, t, s = state
    three = 3 ** (m + 1)
    return p << (e + m + 1), t * three, s * three + (three - (1 << m) - (1 << (e + m))) * p


def _vanished(p: int) -> IdentityViolation:
    return IdentityViolation(f"a power of 2 equalled a power of 3: {p}")


def _lemma(
    p: int, t: int, q: int, budget: int, depth: int, path: Blocks, period: int, found: list
) -> None:
    """The last-block lemma over a node (P, T, Q = 2*(S + P) - T) with
    blocks ``path``, a prenecklace of Lyndon period ``period``: appends
    (path + ((m, e),), k_0) to ``found`` for each last block that closes
    the list as a necklace, in walk order within one length, and above
    depth 1 walks each child that is a prenecklace with room for one more
    block by the module global ``_lemma``, so a patched ``blocks._lemma``
    reaches every node.

    The necklace rule is Fredricksen, Kessler and Maiorana's (Ruskey,
    Savage and Wang, J. Algorithms 13 (1992)), over blocks compared as
    (m, e) pairs.  With t = len(path) the reference block is
    a_(t+1-period), path[-period].  A child x is a prenecklace exactly
    when x >= ref; its period stays ``period`` when x == ref and is t + 1
    otherwise.  A closing list is a necklace when x > ref, or x == ref and
    the period divides t + 1.  So the m loop starts at the reference's m,
    and each list that closes is found once, as its least rotation.  The
    start, with no blocks, counts as period 1 and reference (0, 1), the
    least block, so any block may be stepped or closed there.

    With a = 3^(m+1), b = 2^(m+1) and (P', T', S') the step by (m, e),
    D_e = P' - T' = b*P*2^e - T*a, and the step gives
    2*S' = 2*S*a + (2*a - b - b*2^e)*P, so

        W = 2*S' + D_e = a*Q - b*P

    does not depend on e.  k_0 = S'/D_e = (W/D_e - 1)/2 is an integer
    >= 0 exactly when D_e divides W with an odd quotient >= 1, which needs
    D_e of W's sign and |D_e| <= |W|: b*P*2^e between T*a + min(W, 0) and
    T*a + max(W, 0).  D_e grows with e, so the e that can close form one
    interval; its ends come from bit lengths, and each e in it gets the
    exact test ``divmod(W, D_e)``.  The child (m, e) is
    (P', T', Q') = (b*P*2^e, T*a, W + b*P*2^e), as S' = (W - D_e)/2.

    The interval's low end never falls as m grows.  It is the least e with
    2^e >= min(T*a, T*a + W) / (b*P) = min(T*r, 2*(S + P)*r - P) / P,
    where r = a/b = (3/2)^(m+1): a bound that grows with m, or stays
    negative, where the low end is 1.  Once that end passes budget - m, no
    later m closes, and at depth 1 the m loop stops.  Raises
    IdentityViolation where a D_e is 0.
    """
    ref_m, ref_e = path[-period] if path else (0, 1)
    grown = len(path) + 1  # the period of a child above the reference
    # T*a, a*Q and b*P at m = ref_m - 1, each grown by one factor per m
    a = 3**ref_m
    ta, aq, bp = t * a, q * a, p << ref_m
    for m in range(ref_m, budget):
        ta *= 3
        aq *= 3
        bp <<= 1
        w = aq - bp
        # first: the least e >= 1 with b*P*2^e >= T*a + min(W, 0);
        # last: the greatest e with b*P*2^e <= T*a + max(W, 0)
        if w > 0:
            first = ((ta - 1) // bp).bit_length() or 1
            hi = ta + w
        else:
            lo = ta + w
            first = ((lo - 1) // bp).bit_length() or 1 if lo > 1 else 1
            hi = ta
        room = budget - m
        if first > room and depth == 1:
            return
        last = (hi // bp).bit_length() - 1
        if last > room:
            last = room
        e = first
        if m == ref_m and e <= ref_e:
            e = ref_e if grown % period == 0 else ref_e + 1
        while e <= last:
            d = (bp << e) - ta
            if not d:
                raise _vanished(bp << e)
            k, r = divmod(w, d)
            if not r and k > 0 and k & 1:
                found.append((path + ((m, e),), k >> 1))
            e += 1
        if depth > 1:
            e, child_period = 1, grown
            if m == ref_m:
                e, child_period = ref_e, period
            for e in range(e, room):
                pe = bp << e
                _lemma(pe, ta, w + pe, room - e, depth - 1, path + ((m, e),), child_period, found)
                child_period = grown


def _closing_lists(state: State, budget: int, depth: int, path: Blocks = ()) -> list:
    """Every necklace of 1 to ``depth`` more blocks after ``path``,
    sum(m) + sum(e) <= budget, that closes the state at an integer
    k_0 >= 0, as (path + the list, k_0), from one ``_lemma`` per node,
    each length in walk order, m then e.  ``path`` holds at most one
    block, so its period is 1; with none, every list of one block is a
    necklace.  The state's P and T must be positive."""
    p, t, s = state
    found: list[tuple[Blocks, int]] = []
    _lemma(p, t, 2 * (s + p) - t, budget, depth, path, 1, found)
    return found


def block_state(m_seq: Sequence[int], e_seq: Sequence[int]) -> State:
    """The state (P, T, S) after the blocks (m_j, e_j), folded from
    ``START``.  Raises DomainError unless the lists are equal-length and
    non-empty, with every m >= 0 and every e >= 1."""
    if not m_seq or len(m_seq) != len(e_seq):
        raise DomainError(
            f"need equal-length, non-empty parameter lists, got {list(m_seq)} and {list(e_seq)}"
        )
    state = START
    for m, e in zip(m_seq, e_seq):
        if m < 0 or e < 1:
            raise DomainError(f"need m >= 0 and e >= 1, got (m, e) = ({m}, {e})")
        state = block_step(state, m, e)
    return state


def recurrence_holds(b: Block) -> bool:
    """Does the block balance one cleared step, P * k_out == T * k_in + S?"""
    p, t, s = block_step(START, b.m, b.e)
    return p * b.k_out == t * b.k_in + s


def block_counterexample(k0: int, step_limit: int = DEFAULT_STEP_LIMIT) -> tuple[str, str] | None:
    """Sweep-grade check of the blocks from k0 until the walk first lands
    below its start: every block must balance the integer recurrence and the
    concatenated block paths must equal the raw trajectory of 4*k0 + 2,
    value for value and class for class, all within ``step_limit`` raw
    steps.  None when all of it holds.

    Induction premise: the walk stops after the first block with
    k_out < k0, or after the trivial block when k0 = 0.  The rest of the
    full decomposition is exactly the walk from k_out, which a sweep over a
    range that starts at 0 checks as an input of its own, so the sweep
    checks the same blocks as full walks down to the trivial block would.
    ``decompose_until_trivial`` still gives the full walk.
    """
    floor = max(k0, 1)  # k0 = 0 stops after the trivial block (k_out = 0)
    v = 4 * k0 + 2
    steps = 0
    for b in _blocks_from(k0):
        k_in, m, _, _, e, k_out = b
        n = 2 * m + e + 2  # b.steps; the block's path has n + 1 values
        steps += n
        if steps > step_limit:
            return ("a block below the start within the step limit", f"still at k={k_in}")
        if not recurrence_holds(b):
            return ("block recurrence balance", f"violated at {b}")
        path = block_path(b)
        # the chain, then gamma and its halvings (0 mod 4), then the next beta
        residues = chain_residues(m) + [0] * e + [2]
        for i, (expect, want) in enumerate(zip(path, residues, strict=True)):
            if v != expect:
                return (f"path value {expect} (block k_in={k_in}, offset {i})", str(v))
            if v & 3 != want:
                return (f"path residue {want} (mod 4)", f"{v} ~ {v & 3} (mod 4)")
            if i < n:
                v = 3 * v + 1 if v & 1 else v >> 1
        if k_out < floor:
            return None
