"""numpy's ``Generator(PCG64(seed)).random()`` in pure Python, bit for bit: the
seed goes through ``SeedSequence``'s hash into a 128-bit PCG state and
increment; a draw steps the LCG and keeps 53 bits of its XSL-RR output."""

import os

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hashes(h: int, mult: int, count: int) -> list[int]:  # h * mult**i mod 2**32
    return [h * pow(mult, i, 1 << 32) & _M32 for i in range(count)]


# SeedSequence's hash constants, two per hash: a seed below 2**128 takes 16 (4 fill the pool,
# 12 mix its (source, target) pairs), each further word 4 (mixed into each pool word) and
# the 8 output words 8.
_MIX, _OUT = _hashes(0x43B0D7E5, 0x931E8875, 17), _hashes(0x8B51F9DD, 0x58F38DED, 9)
_PAIRS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


class PCG64:
    """numpy's ``Generator(PCG64(seed))``, drawing with ``random()``; ``seed``
    is a non-negative int (bools excluded), or None for 128 bits of OS entropy."""

    def __init__(self, seed: int | None = None):
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise ValueError(f"a seed must be a non-negative int, got {seed!r}")
        seed = int.from_bytes(os.urandom(16), "little") if seed is None else seed
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hs = _MIX if len(words) <= 4 else _hashes(0x43B0D7E5, 0x931E8875, 4 * len(words) + 1)
        pairs = _PAIRS + [(src, dst) for src in range(4, len(words)) for dst in range(4)]
        pool = [(v := (w ^ hs[k]) * hs[k + 1] & _M32) ^ v >> 16
                for k, w in enumerate((words + [0] * 3)[:4])] + words[4:]
        for k, (src, dst) in enumerate(pairs, 4):
            v = (pool[src] ^ hs[k]) * hs[k + 1] & _M32
            v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
            pool[dst] = v ^ v >> 16
        o = [(v := (pool[k % 4] ^ _OUT[k]) * _OUT[k + 1] & _M32) ^ v >> 16 for k in range(8)]
        state, inc = (o[i] << 64 | o[i + 1] << 96 | o[i + 2] | o[i + 3] << 32 for i in (0, 4))
        self._inc = (inc << 1 | 1) & _M128
        self._state = ((self._inc + state) * _MULT + self._inc) & _M128

    def random(self) -> float:
        """The next float in [0, 1): 53 bits of the next output, times 2**-53."""
        self._state = s = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0 ** -53
