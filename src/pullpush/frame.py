"""Slotted frame geometry: reserved query services vs. random-access slots.

A frame of ``frame_slots`` slots of ``tau_s`` seconds carries, in order,
``q`` scheduled wake-up services of ``k_w + k_t`` slots each, a ``k_c``-slot
control beacon, and ``k_a`` contention slots. ``q`` is the single design
knob; everything else follows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _FLOAT_MAX, _check_int, _check_real


class InfeasibleSplitError(ValueError):
    """Requested split leaves no random-access slot (k_a >= 1 violated)."""


@dataclass(frozen=True)
class FrameConfig:
    """Slot layout of one frame. Defaults match the reference setup.

    tau_s: slot duration [s]; frame_slots: slots per frame; k_w: slots for
    one wake-up signal plus radio activation; k_t: slots for the woken
    device's data transmission; k_c: slots for the push control beacon.
    """

    tau_s: float = 0.25e-3
    frame_slots: int = 101
    k_w: int = 4
    k_t: int = 1
    k_c: int = 1

    def __post_init__(self):
        _check_real("tau_s", self.tau_s, positive=True, must="be a finite positive number")
        for name in ("frame_slots", "k_w", "k_t", "k_c"):
            _check_int(name, getattr(self, name), 1)
        _check_real("frame_slots", self.frame_slots, must="fit a float")  # t_frame_s = tau_s * frame_slots
        needed = self.k_c + self.k_w + self.k_t + 1
        if self.frame_slots < needed:
            raise ValueError(
                f"frame_slots={self.frame_slots} too small: need at least "
                f"k_c + k_w + k_t + 1 = {needed} slots for one query service "
                f"and one access slot"
            )
        # The searches start from rates up to 3 * frame_slots / t_frame_s.
        t_frame = self.t_frame_s
        if not (t_frame <= _FLOAT_MAX and 3.0 * self.frame_slots / t_frame <= _FLOAT_MAX):
            raise ValueError(
                f"tau_s must keep tau_s * frame_slots and 3 * frame_slots / (tau_s * frame_slots) "
                f"finite at frame_slots={self.frame_slots}, got {self.tau_s!r}"
            )

    @property
    def t_frame_s(self) -> float:
        """Frame duration [s]: tau_s * frame_slots."""
        return self.tau_s * self.frame_slots

    @property
    def slots_per_service(self) -> int:
        """Slots one scheduled query service occupies (k_w + k_t)."""
        return self.k_w + self.k_t


@dataclass(frozen=True)
class FrameSplit:
    """One concrete split: q query services, k_a access slots, durations."""

    q: int
    k_a: int
    t_pull_s: float
    t_push_s: float


def q_max(config: FrameConfig) -> int:
    """Largest q that still leaves one access slot: floor((F - k_c - 1)/(k_w + k_t))."""
    return (config.frame_slots - config.k_c - 1) // config.slots_per_service


def split_for_q(config: FrameConfig, q: int) -> FrameSplit:
    """Split the frame for ``q`` query services.

    Slot bookkeeping is integer-exact; durations are derived by a single
    multiplication with tau_s. q = 0 (all-push frame) is allowed.
    """
    _check_int("q", q, 0)
    k_a = config.frame_slots - config.k_c - q * config.slots_per_service
    if k_a < 1:
        raise InfeasibleSplitError(
            f"q={q} leaves k_a={k_a} access slots, violating k_a >= 1 "
            f"(q_max={q_max(config)} for this frame)"
        )
    pull_slots = q * config.slots_per_service
    return FrameSplit(
        q=q,
        k_a=k_a,
        t_pull_s=pull_slots * config.tau_s,
        t_push_s=(config.k_c + k_a) * config.tau_s,
    )
