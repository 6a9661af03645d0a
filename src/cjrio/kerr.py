"""Ideal cross-Kerr probe beams and their homodyne readout.

A probe is a shared coherent beam that picks up an integer multiple of a
symbolic phase unit from each path it taps: +1, -1 or +2 per interaction,
conditioned on the photon actually occupying the tapped path in a given basis
ket.  X-quadrature homodyne detection then resolves only the magnitude of the
accumulated phase, so kets with multipliers +n and -n fall in the same
outcome class.  The photon-side amplitudes are untouched by the interaction;
only the measurement collapses them.  A probe is its taps on one state; one
pass of the readout classes the kets.
"""

from __future__ import annotations

from .hilbert import PRUNE_TOL, HybridState, Outcome, collapse_outcomes, on_path

ALLOWED_MULTIPLIERS = (-1, 1, 2)
_RETAP = "the probe was tapped on another state; re-tap after state changes"


class Probe:
    """The (path mask, on-path value, multiplier) taps on ``state``; ``tapped`` ORs the masks."""

    __slots__ = ("state", "taps", "tapped")

    def __init__(self, state: HybridState, taps: tuple = (), tapped: int = 0):
        self.state, self.taps, self.tapped = state, taps, tapped


def fresh_probe(state: HybridState) -> Probe:
    """An untapped probe on ``state``: every ket's multiplier is 0."""
    return Probe(state)


def kerr(probe: Probe, state: HybridState, i: int, path: int, mult: int) -> Probe:
    """Tap one path of the photon at position ``i``: every ket with the
    photon on ``path`` adds ``mult`` to its probe multiplier.  Returns the
    tapped probe; ``probe`` and the state amplitudes are unchanged."""
    if type(mult) is not int or mult not in ALLOWED_MULTIPLIERS:
        raise ValueError(f"interaction multiplier must be one of {ALLOWED_MULTIPLIERS}")
    sm, _ = state.require_alive(i)
    if probe.state is not state:
        raise ValueError(_RETAP)
    return Probe(state, (*probe.taps, (sm, on_path(sm, path), mult)), probe.tapped | sm)


def enumerate_homodyne(probe: Probe, state: HybridState) -> list[Outcome]:
    """Every homodyne outcome with its probability and collapsed, renormalized
    state, deterministically ordered by phase class.  Pure: the same probe can
    be enumerated repeatedly."""
    if probe.state is not state:
        raise ValueError(_RETAP)
    taps, tapped = probe.taps, probe.tapped
    classes: dict[int, list] = {}  # class -> [its terms, its probability]
    read: dict[int, list] = {}  # the tapped bits of a ket -> its class's entry
    get = read.get
    for ket, amp in state.terms.items():
        part = get(ket & tapped)
        if part is None:
            c = 0
            for mask, on, mult in taps:
                if ket & mask == on:
                    c += mult
            part = read[ket & tapped] = classes.setdefault(abs(c), [{}, 0])
        if (a := abs(amp)) > PRUNE_TOL:  # pruned here: a collapse only normalizes
            part[0][ket] = amp
        part[1] += a ** 2
    return collapse_outcomes(state, [(c, *classes[c]) for c in sorted(classes)])
