"""The gain table of a best-response walk, shared by ``simulation``'s seeded
runs and ``dynamics``'s path construction."""

from __future__ import annotations

from .game import Game


class _Play:
    """The best-response state of one walk, kept up to date move by move.

    ``bits`` lists the actions of ``x``, one per player.  ``gain[k]`` is what
    player k gains by switching its action, on the game's integer scale;
    ``gain[k] == 0`` is an exact tie.  ``restless`` holds the players with a
    positive gain, so ``x`` is an equilibrium exactly when it is empty.  Only
    ``flip`` changes the state.
    """

    __slots__ = ("x", "bits", "gain", "restless", "_nbrsw")

    def __init__(self, game: Game, x: int) -> None:
        self.x, self._nbrsw = x, game._nbrsw
        self.bits = bits = [x >> k & 1 for k in range(game.n)]
        # Margins (gain of playing 1 over 0): at the all-zero state, then one
        # row per player at 1; a player at 1 gains the negated margin.
        self.gain = gain = [-s * t for s, t in zip(game._sign, game._thr_int)]
        ones = [k for k, b in enumerate(bits) if b]
        for j in ones:
            for k, sw in game._nbrsw[j]:
                gain[k] += sw
        for k in ones:
            gain[k] = -gain[k]
        self.restless = {k for k, g in enumerate(gain) if g > 0}

    def flip(self, k: int) -> int:
        """Switch player k, whose gain is not negative, and return the new
        state.  Only its neighbours' gains move; k's own gain changes sign,
        so it is at rest after."""
        self.x = x = self.x ^ 1 << k
        bits, gain, restless = self.bits, self.gain, self.restless
        bits[k] = b = bits[k] ^ 1
        gain[k] = -gain[k]
        restless.discard(k)
        # Neighbour j gains sign_j * w when its action differs from k's new one.
        for j, sw in self._nbrsw[k]:
            g = gain[j] = gain[j] + sw if bits[j] != b else gain[j] - sw
            if g > 0:
                restless.add(j)
            else:
                restless.discard(j)
        return x
