"""Ideal cross-Kerr probe beams and their homodyne readout.

A probe is a shared coherent beam that picks up an integer multiple of a
symbolic phase unit from each path it taps: +1, -1 or +2 per interaction,
conditioned on the photon actually occupying the tapped path in a given basis
ket.  X-quadrature homodyne detection then resolves only the magnitude of the
accumulated phase, so kets with multipliers +n and -n fall in the same
outcome class.  The photon-side amplitudes are untouched by the interaction;
only the measurement collapses them.  A probe is held as its tags: a dict from
each ket to the multiplier it has picked up.
"""

from __future__ import annotations

from .hilbert import HybridState, Outcome, collapse_outcomes

ALLOWED_MULTIPLIERS = (-1, 1, 2)


def fresh_probe(state: HybridState) -> dict[int, int]:
    """An untapped probe: its phase-multiplier tag per ket of ``state``, all 0."""
    return {ket: 0 for ket in state.terms}


def kerr(
    probe: dict[int, int],
    state: HybridState,
    i: int,
    path: int,
    mult: int,
) -> dict[int, int]:
    """Tap one path of the photon at position ``i``: every ket with the
    photon on ``path`` adds ``mult`` to its probe multiplier.  Returns the
    updated probe; state amplitudes are unchanged."""
    if mult not in ALLOWED_MULTIPLIERS:
        raise ValueError(f"interaction multiplier must be one of {ALLOWED_MULTIPLIERS}")
    sm, _ = state.require_alive(i)
    on_path = sm if path else 0
    return {
        ket: probe.get(ket, 0) + (mult if (ket & sm) == on_path else 0)
        for ket in state.terms
    }


def enumerate_homodyne(probe: dict[int, int], state: HybridState) -> list[Outcome]:
    """Every homodyne outcome with its probability and collapsed, renormalized
    state, deterministically ordered by phase class.  Pure: the same probe can
    be enumerated repeatedly."""
    classes: dict[int, dict[int, complex]] = {}
    for ket, amp in state.terms.items():
        try:
            c = abs(probe[ket])
        except KeyError:
            raise ValueError("probe tags do not cover the state; re-tap after state changes") from None
        classes.setdefault(c, {})[ket] = amp
    return collapse_outcomes(state, [(c, classes[c]) for c in sorted(classes)])
