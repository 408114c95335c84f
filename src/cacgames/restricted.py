"""Restricted games, one side of a game with the other side frozen: their
effective thresholds, the non-strategic remainder term, and the exact
potential functions that make one-side dynamics monotone."""

from __future__ import annotations

from fractions import Fraction

from .configsets import _equilibria
from .errors import DegenerateNodeError, GameInputError
from .game import Game, _check_config
from .rationals import shown
from .scalar import utility as _full_utility


class RestrictedGame:
    """One side of a game with the other side frozen.

    ``side`` is "coordinating" or "anticoordinating" and names the moving
    players; ``fixed`` is a full configuration mask of which only the
    opposite side's bits are read.
    """

    __slots__ = ("game", "side", "fixed", "moving", "moving_mask", "_movers", "_sign")

    def __init__(self, game: Game, side: str, fixed: int) -> None:
        if side == "coordinating":
            self.moving, self.moving_mask = game.coordinating, game.coord_mask
            self._movers, self._sign = game._coord_idx, 1
        elif side == "anticoordinating":
            self.moving, self.moving_mask = game.anticoordinating, game.anti_mask
            self._movers, self._sign = game._anti_idx, -1
        else:
            raise GameInputError(f"side must name a role, got {shown(side)}")
        _check_config(game, fixed, "fixed")
        self.game, self.side, self.fixed = game, side, fixed

    def merged(self, x: int) -> int:
        """Full configuration: moving bits from ``x``, the rest from ``fixed``."""
        _check_config(self.game, x, "moving")
        mm = self.moving_mask
        return (x & mm) | (self.fixed & ~mm)

    def _moving_index(self, node) -> int:
        k = self.game.graph.index(node)
        if not self.moving_mask >> k & 1:
            raise GameInputError(f"{shown(node)} is not on the {self.side} side")
        return k

    def modified_threshold(self, node) -> Fraction:
        """Effective threshold of a moving player once the frozen side's
        actions are absorbed.

        May leave (0, 1); it is never clamped.  Undefined (degenerate) when
        the player has no neighbors on its own side.
        """
        inside, pull = _own_side(self.game, self._moving_index(node), self.fixed)
        if inside == 0:
            raise DegenerateNodeError(
                f"{shown(node)} has no same-side neighbors; its effective threshold is undefined"
            )
        return Fraction(pull, inside)

    def utility(self, node, x: int) -> Fraction:
        """Utility of a moving player at the merged configuration."""
        self._moving_index(node)
        return _full_utility(self.game, node, self.merged(x))

    def nonstrategic_term(self, node, x: int) -> Fraction:
        """The part of a coordinating mover's utility that its own action
        cannot influence.  Only defined on the coordinating side and for
        players with same-side neighbors.
        """
        if self.side != "coordinating":
            raise GameInputError("the non-strategic term is defined for the coordinating side")
        k = self._moving_index(node)
        game = self.game
        r = game.thresholds[node]
        r_eff = self.modified_threshold(node)
        merged = self.merged(x)
        own0 = out0 = 0
        for j, w in game._nbrw[k]:
            if not merged >> j & 1:
                if game._sign[j] > 0:
                    own0 += w
                else:
                    out0 += w
        return ((r - r_eff) * own0 + r * out0) / game._scale

    def potential(self, x: int) -> Fraction:
        return _side_potential(self.game, self._movers, self._sign, self.merged(x))

    def nash(self) -> list:
        """Exact equilibria of the one-side game, as full masks (frozen bits
        included), ascending.  Capped by the number of moving players.
        """
        mm = self.moving_mask
        return _equilibria(self.game, self.fixed & ~mm, mm, self._movers)


def _own_side(game: Game, k: int, x: int) -> tuple:
    """Own-side degree ``W_in`` of player index k and its pull
    ``r_k * w_k - (opposite-side weight playing 1 in x)``.

    Both are integers on the game's scale.  The effective threshold is
    ``pull / W_in``; only the opposite side's bits of ``x`` are read.
    """
    own = game._sign[k]
    inside = out1 = 0
    for j, w in game._nbrw[k]:
        if game._sign[j] == own:
            inside += w
        elif x >> j & 1:
            out1 += w
    return inside, game._thr_int[k] - out1


def _side_potential(game: Game, side: tuple, sign: int, x: int) -> Fraction:
    """Exact potential of the players ``side`` (all of role ``sign``) at
    frozen opposite actions.

    Unilateral flips on the side change it by exactly their utility
    difference.  Each matched internal edge counts half its weight: a flip
    of one endpoint then shifts the pair term by half the difference of the
    mover's matched and unmatched internal weight, which together with the
    linear term ``(r_eff - 1/2) * W_in`` of each player at 1 reproduces the
    utility difference exactly.  That term is summed as ``2 * pull - W_in``
    on the game's scale, so it stays defined when ``W_in`` is 0.
    Anti-coordinating players (``sign`` -1) gain from mismatches, so their
    side's form is negated.
    """
    matched = linear = 0
    for k in side:
        xk = x >> k & 1
        for j, w in game._nbrw[k]:
            if j > k and game._sign[j] == sign and (x >> j & 1) == xk:
                matched += w
        if xk:
            inside, pull = _own_side(game, k, x)
            linear += 2 * pull - inside
    return Fraction(sign * (matched - linear), 2 * game._scale)


def coordination_potential(game: Game, x: int) -> Fraction:
    """Exact potential of the coordinating side at frozen opposite actions."""
    _check_config(game, x, "evaluated")
    return _side_potential(game, game._coord_idx, 1, x)


def anticoordination_potential(game: Game, x: int) -> Fraction:
    """Exact potential of the anti-coordinating side at frozen opposite
    actions."""
    _check_config(game, x, "evaluated")
    return _side_potential(game, game._anti_idx, -1, x)
