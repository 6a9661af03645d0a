"""Ideal cross-Kerr probe beams and their homodyne readout.

A probe is a shared coherent beam that picks up an integer multiple of a
symbolic phase unit from each path it taps: +1, -1 or +2 per interaction,
conditioned on the photon actually occupying the tapped path in a given basis
ket.  X-quadrature homodyne detection then resolves only the magnitude of the
accumulated phase, so kets with multipliers +n and -n fall in the same
outcome class.  The photon-side amplitudes are untouched by the interaction;
only the measurement collapses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hilbert import HybridState, Outcome, collapse_outcomes

ALLOWED_MULTIPLIERS = (-1, 1, 2)


@dataclass
class CoherentProbe:
    """Phase-multiplier tags per basis ket."""

    tags: dict[int, int]


def fresh_probe(state: HybridState) -> CoherentProbe:
    return CoherentProbe(tags={ket: 0 for ket in state.terms})


def kerr(
    probe: CoherentProbe,
    state: HybridState,
    i: int,
    path: int,
    mult: int,
) -> CoherentProbe:
    """Tap one path of the photon at position ``i``: every ket with the
    photon on ``path`` adds ``mult`` to its probe multiplier.  Returns the
    updated probe; state amplitudes are unchanged."""
    if mult not in ALLOWED_MULTIPLIERS:
        raise ValueError(f"interaction multiplier must be one of {ALLOWED_MULTIPLIERS}")
    sm, _ = state.require_alive(i)
    on_path = sm if path else 0
    tags = {
        ket: probe.tags.get(ket, 0) + (mult if (ket & sm) == on_path else 0)
        for ket in state.terms
    }
    return CoherentProbe(tags=tags)


def enumerate_homodyne(probe: CoherentProbe, state: HybridState) -> list[Outcome]:
    """Every homodyne outcome with its probability and collapsed, renormalized
    state, deterministically ordered by phase class.  Pure: the same probe can
    be enumerated repeatedly."""
    classes: dict[int, dict[int, complex]] = {}
    for ket, amp in state.terms.items():
        try:
            c = abs(probe.tags[ket])
        except KeyError:
            raise ValueError("probe tags do not cover the state; re-tap after state changes") from None
        classes.setdefault(c, {})[ket] = amp
    return collapse_outcomes(state, classes, [(c, c) for c in sorted(classes)])
