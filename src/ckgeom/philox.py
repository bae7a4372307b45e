"""Philox4x64-10 in pure Python, bit for bit the stream of numpy's
`Generator(Philox(key=seed, counter=[0, 0, 0, counter]))` for the draws
the harness makes (checked against numpy 2.4 by the tests).

Philox (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) maps a 256-bit counter and a 128-bit key to four 64-bit words in
ten rounds.  As in numpy, the counter is incremented before each block,
the block's words are handed out in order, a double is (x >> 11) * 2**-53,
and a 32-bit draw takes the low half of a word and keeps the high half for
the next 32-bit draw.
"""

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1
_M256 = (1 << 256) - 1
_MUL0, _MUL1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_WEYL0, _WEYL1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ULP = 2.0 ** -53
_EMPTY = (0, 0, 0, 0)


class Philox:
    """The generator keyed by `seed`, an integer in [0, 2**64), at counter
    [0, 0, 0, counter].  `state` is everything but the key: the tuple
    (counter, buffer, position in it, kept half-word or None)."""

    __slots__ = ("_keys", "_ctr", "_buf", "_pos", "_half")

    def __init__(self, seed: int, counter: int = 0):
        # the key schedule of the ten rounds: (seed, 0) plus r Weyl words
        self._keys = tuple(((seed + r * _WEYL0) & _M64, r * _WEYL1 & _M64)
                           for r in range(10))
        self.rekey(counter)

    def rekey(self, counter: int):
        """The fresh state at counter [0, 0, 0, counter]: an empty buffer
        and no kept half-word."""
        self._ctr = counter << 192
        self._buf = _EMPTY
        self._pos = 4
        self._half = None

    @property
    def state(self):
        return self._ctr, self._buf, self._pos, self._half

    @state.setter
    def state(self, state):
        self._ctr, self._buf, self._pos, self._half = state

    def _block(self):
        """Increment the counter and return the first word of its block,
        keeping the block as the buffer."""
        c = self._ctr = (self._ctr + 1) & _M256
        x0, x1, x2, x3 = c & _M64, c >> 64 & _M64, c >> 128 & _M64, c >> 192
        m0, m1, m64 = _MUL0, _MUL1, _M64
        for a, b in self._keys:
            p = m0 * x0
            q = m1 * x2
            x0 = q >> 64 ^ x1 ^ a
            x1 = q & m64
            x2 = p >> 64 ^ x3 ^ b
            x3 = p & m64
        self._buf = x0, x1, x2, x3
        self._pos = 1
        return x0

    def _next64(self):
        pos = self._pos
        if pos == 4:
            return self._block()
        self._pos = pos + 1
        return self._buf[pos]

    def _next32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, lo=0.0, hi=1.0, size=None):
        """numpy's `uniform`: lo + (hi - lo) * u for a double u in [0, 1);
        a list of `size` of them if `size` is given."""
        if size is None:
            return lo + (hi - lo) * ((self._next64() >> 11) * _ULP)
        return [lo + (hi - lo) * ((self._next64() >> 11) * _ULP)
                for _ in range(size)]

    def integers(self, lo: int, hi: int) -> int:
        """numpy's `integers(lo, hi)` for 0 < hi - lo <= 2**32: Lemire's
        multiply-and-reject on 32-bit draws."""
        span = hi - lo
        if not 0 < span <= 1 << 32:
            raise ValueError(f"integers needs 0 < hi - lo <= 2**32, got "
                             f"[{lo}, {hi})")
        if span == 1:
            return lo
        m = self._next32() * span
        if m & _M32 < span:
            floor = (1 << 32) % span
            while m & _M32 < floor:
                m = self._next32() * span
        return lo + (m >> 32)

    def permutation(self, n: int) -> list:
        """numpy's `permutation(n)` for n <= 2**32: Fisher-Yates from the
        top, each index drawn as a masked 32-bit draw, redrawn above it."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
