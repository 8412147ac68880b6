"""Equilibrium computation and order-structure certification.

The brute-force equilibrium set is the canonical oracle: a profile is an
equilibrium iff no player has a profitable feasible unilateral deviation.
Fixed points of the joint and group best-response correspondences are
computed independently and must coincide with the oracle; any mismatch
raises InternalContradiction rather than returning silently.

The extremal iteration uses the max (or min) selection of the group
best-response correspondence.  Monotonicity of this selection follows
from the correspondence being increasing with lattice values: for
x <= x', max C(x) join max C(x') lies in C(x'), which forces
max C(x) <= max C(x').  Starting from the top of S the iterates therefore
decrease and stabilize at the greatest fixed point, i.e. the greatest
equilibrium; dually from the bottom.

A set of profiles is a position mask over S (bit k for ``g.feasible[k]``),
and it enters the order layer as that mask.  Only :mod:`latnash.games`
reads a game's tables; this module re-exports its correspondences.
Profiles and labels are built only for return values, witnesses and
messages.  A player's stable mask holds the positions whose own strategy
is in the best mask of their section, and E's mask is the AND of all
stable masks; both are computed once per game and cached on it, and
:func:`stable_set` reads a player's mask out as profiles.  Position k is a fixed
point of a response map iff the map's response mask at k holds bit k,
and the fixed points must equal the AND of the relevant stable masks.
On a product S the audit's "increasing" hypothesis is decided player by
player: each image is the product of the players' best own sets, so it
is enough that each best own set is closed in its strategy lattice and
grows along the player's rest covers (see
:func:`latnash.games._increasing_by_players`), and no image is scanned.
On any other S, and whenever that check fails, the hypothesis runs on
S's covering pairs once S is known to be a lattice (see
:func:`latnash.order.is_increasing_by_covers`), which names the first
witness.  Either pass shows every image closed, so the value hypothesis
scans the images only when the hypothesis fails or an image is empty.
The order induced on E and its completeness verdicts, one per cap, are
computed once and kept by the cached equilibrium set, not by the game,
and shared by the report and the audit.
Every InternalContradiction names the game and the phase that found it.
"""

from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

from latnash import _kernels
from latnash.errors import InternalContradiction, InvalidArgument, PreconditionViolated, quote
from latnash.games import (
    Game,
    ValidationReport,
    _group_responses,
    _increasing_by_players,
    _joint_mask,
    _player_positions,
    _stable_mask,
    box_correspondence,
    group_response_correspondence,
    individual_response_correspondence,
    section_correspondence,
    validate_supermodular,
)
from latnash.order import (
    DEFAULT_EXHAUSTIVE_CAP,
    PASS,
    CheckResult,
    Poset,
    _induced,
    _lazy,
    _members,
    _subcomplete,
    _sublattice,
    is_complete_lattice,
    is_increasing_by_covers,
    is_lattice,
    to_dot,
)

__all__ = ["EquilibriumReport", "EquilibriumSet", "FixedPointAudit", "box_correspondence",
           "equilibria_bruteforce", "equilibrium_report", "extremal_equilibrium",
           "fixed_points", "group_response_correspondence",
           "individual_response_correspondence", "section_correspondence", "stable_set",
           "tarski_zhou_check", "validate_supermodular"]


def _contradiction(g: Game, phase: str, msg: str) -> InternalContradiction:
    return InternalContradiction(f"game {g.name or '(unnamed)'}, {phase}: {msg}")


def stable_set(g: Game, player):
    """Profiles at which the player has no profitable feasible deviation."""
    i = g.player_pos(player)
    return _members(g.feasible, equilibria_bruteforce(g).stable_masks[i])


@dataclass(frozen=True)
class EquilibriumSet:
    game: Game
    profiles: tuple
    mask: int  # the profiles, as a position mask over S
    stable_masks: tuple  # per player position, the stable set as a mask

    @_lazy
    def induced(self) -> Poset:
        """E under the order S induces on it, built on first read."""
        return _induced(self.game.feasible_poset(), self.mask)

    @_lazy
    def _complete(self) -> dict:
        """Exhaustive cap -> completeness of :attr:`induced`, filled by
        :func:`_complete_E`."""
        return {}


def equilibria_bruteforce(g: Game) -> EquilibriumSet:
    """Exact equilibrium set: intersection of the per-player stable sets.

    Computed once per game; later calls return the same read-only value.
    """
    if g._equilibria is None:
        stable = tuple(_stable_mask(g, i) for i in range(len(g.players)))
        mask = reduce(int.__and__, stable)
        g._equilibria = EquilibriumSet(game=g, profiles=_members(g.feasible, mask), mask=mask,
                                       stable_masks=stable)
    return g._equilibria


def fixed_points(g: Game, correspondence: str = "joint", players=None):
    """Fixed points of the joint (R) or group (Y_I) best-response map.

    Cross-checked against the definitional sets: Fix of the joint map must
    equal the brute-force equilibrium set, and Fix of the group map for a
    player set I must equal the intersection of the stable sets over I.
    Every call reads the fixed points off the responses (for the group
    map, the player set's stored tuple) and cross-checks them.
    """
    if correspondence == "joint":
        idx = tuple(range(len(g.players)))
        responses = (_joint_mask(g, k) for k in range(len(g.feasible)))
    elif correspondence == "partial":
        idx = _player_positions(g, () if players is None else players)
        responses = _group_responses(g, idx)
    else:
        raise InvalidArgument(f"unknown correspondence kind {quote(correspondence)}")
    # position k is fixed iff the response at k holds k
    fix = sum(m & (1 << k) for k, m in enumerate(responses))
    stable = equilibria_bruteforce(g).stable_masks
    oracle = reduce(int.__and__, (stable[i] for i in idx))
    if fix != oracle:
        if correspondence == "joint":
            raise _contradiction(
                g, "joint fixed points", "Fix(joint response) != equilibrium set: "
                f"{_members(g.feasible, fix)} vs {_members(g.feasible, oracle)}")
        raise _contradiction(
            g, "group fixed points",
            f"Fix(group response {[g.players[i] for i in idx]}) != stable-set intersection")
    return _members(g.feasible, fix)


def extremal_equilibrium(g: Game, direction: str = "greatest"):
    """Monotone iteration to the greatest or least equilibrium.

    Requires a validated supermodular game.  Returns ``(profile, trace)``
    where the trace lists the distinct iterates from the extremum of S to
    the fixed point.  The result is asserted against the brute-force
    extremum; disagreement raises InternalContradiction.
    """
    if direction not in ("greatest", "least"):
        raise InvalidArgument(
            f"direction must be 'greatest' or 'least', got {quote(direction)}")
    if not validate_supermodular(g).ok:
        raise PreconditionViolated(
            "extremal iteration needs a validated supermodular game")
    S = g.feasible_poset()
    up, down = S._up, S._down
    pick = _kernels.greatest if direction == "greatest" else _kernels.least
    # the positions an iterate may step to: below it, or above it
    ahead = down if direction == "greatest" else up
    responses = _group_responses(g, tuple(range(len(g.players))))

    phase = f"iteration to the {direction} equilibrium"
    # a set has a greatest (least) member iff its product join (meet) lies in it
    k = pick(up, down, g._full)
    if k is None:
        raise _contradiction(
            g, phase, "extremum of S escaped S despite the sublattice verdict")
    trace = [k]
    for _ in range(len(g.feasible) + 1):
        nxt = pick(up, down, responses[k])
        if nxt is None:
            raise _contradiction(
                g, phase, f"best-response value set is not a sublattice at {g.feasible[k]}")
        if not (ahead[k] >> nxt) & 1:
            raise _contradiction(
                g, phase, "iteration failed to be monotone at "
                f"{g.feasible[k]} -> {g.feasible[nxt]}")
        if nxt == k:
            break
        k = nxt
        trace.append(k)
    else:
        raise _contradiction(g, phase, "iteration exceeded |S| steps")
    x = g.feasible[k]

    E = equilibria_bruteforce(g).mask
    if not E:
        raise _contradiction(
            g, phase, "validated supermodular game has no equilibrium")
    want = _extremum_of(g, E, direction)
    if x != want:
        raise _contradiction(
            g, phase,
            f"iteration reached {x} but the brute-force {direction} equilibrium is {want}")
    return x, [g.feasible[t] for t in trace]


def _extremum_of(g: Game, mask, direction: str):
    """Greatest/least member of a position mask over S under the product
    order, as a profile, or None if it has no such member."""
    S = g.feasible_poset()
    pick = _kernels.greatest if direction == "greatest" else _kernels.least
    k = pick(S._up, S._down, mask)
    return None if k is None else g.feasible[k]


# --------------------------------------------------------------------------
# hypothesis/conclusion audit for the fixed-point argument


@dataclass(frozen=True)
class FixedPointAudit:
    """Concrete check of the monotone fixed-point theorem on one game:
    hypotheses (complete lattice of profiles, increasing correspondence,
    nonempty subcomplete value sets) and conclusion (nonempty complete
    lattice of fixed points)."""

    hypotheses: MappingProxyType  # name -> CheckResult
    conclusion: CheckResult

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.hypotheses.values()) and self.conclusion.ok

    def render(self) -> str:
        lines = []
        for name, r in self.hypotheses.items():
            lines.append(f"hypothesis: {name}: {'ok' if r.ok else f'FAIL {r.witness}'}")
        c = self.conclusion
        lines.append(f"conclusion: fixed points form a nonempty complete lattice: "
                     f"{'ok' if c.ok else f'FAIL {c.witness}'}")
        return "\n".join(lines) + "\n"


def _complete_E(g: Game, exhaustive_cap: int):
    """The order S induces on a nonempty E, and its completeness, checked
    over all subsets iff |E| <= ``exhaustive_cap``; both are computed once
    (the verdict once per cap) and kept by the equilibrium set."""
    eq = equilibria_bruteforce(g)
    verdict = eq._complete.get(exhaustive_cap)
    if verdict is None:
        verdict = eq._complete[exhaustive_cap] = is_complete_lattice(
            eq.induced, exhaustive=len(eq.induced) <= exhaustive_cap)
    return eq.induced, verdict


def tarski_zhou_check(g: Game,
                      exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> FixedPointAudit:
    """Verify the fixed-point theorem's hypotheses and conclusion on g.

    Completeness of the fixed-point set is checked over all its subsets
    when it has at most ``exhaustive_cap`` elements, pairwise otherwise.
    On a product S a pass of the "increasing" hypothesis is decided
    player by player on the strategy lattices; a failure there, and any
    other S, take the scan over S's covering pairs, so every verdict and
    witness is the scan's.
    """
    hyps = {}
    sub = validate_supermodular(g).sublattice
    hyps["S is a sublattice of the strategy product (hence a finite complete lattice)"] = sub

    if sub.ok:
        masks = _group_responses(g, tuple(range(len(g.players))))
        # a product S is decided player by player; otherwise, and on a
        # failure, S is a lattice here, so the covering pairs of S decide
        # a pass, and the full scan names the witness
        increasing = _increasing_by_players(g)
        if increasing is None:
            S = g.feasible_poset()
            increasing = is_increasing_by_covers(S, S, masks)
        hyps["the joint best-response correspondence is increasing"] = increasing
        # a pass of "increasing" closed each image under S's meets and
        # joins (its t = t' pairs), so nonempty images are sublattices of
        # the lattice S, and the join (meet) of all members is the max (min)
        hyps["every response value is a nonempty sublattice with max and min"] = (
            PASS if increasing and all(masks)
            else _response_values(g, g.feasible_poset(), masks))
    else:
        note = CheckResult(False, witness=None,
                           note="not evaluated: S is not a sublattice")
        hyps["the joint best-response correspondence is increasing"] = note
        hyps["every response value is a nonempty sublattice with max and min"] = note

    # fixed_points checks that the fixed points are E
    if not fixed_points(g, "partial", g.players):
        conclusion = CheckResult(False, witness=("empty fixed-point set",))
    else:
        conclusion = _complete_E(g, exhaustive_cap)[1]
    return FixedPointAudit(hypotheses=MappingProxyType(hyps), conclusion=conclusion)


def _response_values(g: Game, S: Poset, masks) -> CheckResult:
    """The first response value, in the order of S, that is empty or is not
    a sublattice of S; each distinct value is checked once.  S is a lattice
    here, so a nonempty sublattice of it has a max and a min: the join and
    the meet of all its members."""
    passed = set()  # values already found good
    for x, ys in zip(g.feasible, masks):
        if ys in passed:
            continue
        if not ys:
            return CheckResult(False, witness=(x, "empty value"))
        r = _sublattice(S, ys)
        if not r:
            return CheckResult(False, witness=(x,) + r.witness)
        passed.add(ys)
    return PASS


# --------------------------------------------------------------------------
# full report


@dataclass(frozen=True)
class EquilibriumReport:
    game: Game
    validation: ValidationReport
    equilibria: tuple
    nonempty: bool
    induced_is_lattice: CheckResult | None
    induced_is_complete: CheckResult | None
    is_sublattice_of_S: CheckResult | None
    is_subcomplete_in_S: CheckResult | None
    max_equilibrium: tuple | None
    min_equilibrium: tuple | None
    traces: MappingProxyType | None  # direction -> tuple of profiles, when iteration ran

    def to_text(self) -> str:
        g = self.game
        lines = [f"game: {g.name or '(unnamed)'}",
                 "players: " + ", ".join(g.players),
                 f"feasible profiles: {len(g.feasible)}",
                 f"supermodular: {'yes' if self.validation.ok else 'no'}"]
        lines.append(f"equilibria ({len(self.equilibria)}):")
        for e in self.equilibria:
            lines.append("  " + g._label(e))
        lines.append(f"nonempty: {_yn(self.nonempty)}")
        lines.append("induced order on E is a lattice: "
                     + _opt(self.induced_is_lattice))
        lines.append("induced order on E is a complete lattice: "
                     + _opt(self.induced_is_complete))
        lines.append("E is a sublattice of S: " + _opt(self.is_sublattice_of_S))
        lines.append("E is subcomplete in S: " + _opt(self.is_subcomplete_in_S))
        if self.max_equilibrium is not None:
            lines.append("greatest equilibrium: "
                         + g._label(self.max_equilibrium))
        if self.min_equilibrium is not None:
            lines.append("least equilibrium: "
                         + g._label(self.min_equilibrium))
        if self.traces is not None:
            for direction in ("greatest", "least"):
                path = " -> ".join(g._label(p)
                                   for p in self.traces[direction])
                lines.append(f"iteration trace ({direction}): {path}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Hasse diagram of S with equilibrium nodes drawn as boxes."""
        g = self.game
        highlight = {g._label(e) for e in self.equilibria}
        return to_dot(g.feasible_poset(), highlight=highlight, name="feasible_set")


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _opt(r) -> str:
    if r is None:
        return "n/a"
    return "yes" if r.ok else f"no (witness {r.witness})"


def equilibrium_report(g: Game,
                       validation: ValidationReport | None = None,
                       run_iteration: bool = True,
                       exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> EquilibriumReport:
    """Compute E and certify its order structure.

    For a validated supermodular game, nonemptiness of E and completeness
    of its induced order are required outcomes; their failure raises
    InternalContradiction.  Both fixed-point identities are re-derived and
    compared against the brute-force set as part of the computation.
    ``run_iteration=False`` skips the extremal iteration (the traces field
    is then None) without weakening the required verdicts.  Completeness
    and subcompleteness of E are checked over all its subsets when E has
    at most ``exhaustive_cap`` elements, pairwise otherwise.
    ``validation``, if given, must be ``validate_supermodular(g)``.
    """
    own = validate_supermodular(g)
    if validation is not None and validation is not own:
        raise PreconditionViolated(
            "the validation report passed is not validate_supermodular of this game")
    validation = own
    eq = equilibria_bruteforce(g)
    fixed_points(g, "joint")
    fixed_points(g, "partial", g.players)

    E = eq.profiles
    nonempty = bool(E)
    induced_is_lattice = induced_is_complete = None
    subl = subc = None
    max_e = min_e = None
    if nonempty:
        S = g.feasible_poset()
        inducedE, induced_is_complete = _complete_E(g, exhaustive_cap)
        induced_is_lattice = is_lattice(inducedE)
        # a sublattice of the strategy product is a lattice; when S is not
        # a lattice, "sublattice of S" has no meaning and both verdicts
        # stay None
        if validation.sublattice or is_lattice(S):
            subl = _sublattice(S, eq.mask)
            subc = _subcomplete(S, eq.mask, exhaustive_cap)
        max_e = _extremum_of(g, eq.mask, "greatest")
        min_e = _extremum_of(g, eq.mask, "least")

    traces = None
    if validation.ok:
        if not nonempty:
            raise _contradiction(
                g, "equilibrium report",
                "validated supermodular game produced an empty equilibrium set")
        if not induced_is_complete:
            raise _contradiction(
                g, "equilibrium report",
                "equilibrium set of a validated game is not a complete lattice "
                f"(witness {induced_is_complete.witness})")
        if run_iteration:
            top, trace_top = extremal_equilibrium(g, "greatest")
            bot, trace_bot = extremal_equilibrium(g, "least")
            traces = MappingProxyType({"greatest": tuple(trace_top), "least": tuple(trace_bot)})
            if top != max_e or bot != min_e:
                raise _contradiction(g, "equilibrium report",
                                     "extremal iteration disagrees with report")

    return EquilibriumReport(
        game=g, validation=validation, equilibria=E, nonempty=nonempty,
        induced_is_lattice=induced_is_lattice, induced_is_complete=induced_is_complete,
        is_sublattice_of_S=subl, is_subcomplete_in_S=subc, max_equilibrium=max_e,
        min_equilibrium=min_e, traces=traces)
