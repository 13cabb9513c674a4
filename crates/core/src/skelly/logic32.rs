//! 32-bit logic on weird gates: the word-level convenience layer the
//! paper's SHA-1 implementation is written against (§6.2: "32-bit versions
//! of all logical primitives", a full adder, and shift/rotate helpers).
//!
//! Every *boolean combination* of bits goes through weird gates; only data
//! movement (bit extraction/packing, rotation — pure rewiring, no logic)
//! is architectural. The paper calls the resulting computation "partially
//! architecturally visible": word values appear in memory between
//! operations, but no ALU instruction ever combines two operands.

use super::Skelly;
use crate::substrate::Substrate;

impl<S: Substrate> Skelly<S> {
    /// Bitwise `a & b` through 32 weird-AND executions.
    pub fn and32(&mut self, a: u32, b: u32) -> u32 {
        self.map2(a, b, Self::and)
    }

    /// Bitwise `a | b`.
    pub fn or32(&mut self, a: u32, b: u32) -> u32 {
        self.map2(a, b, Self::or)
    }

    /// Bitwise `a ^ b` (4 NAND executions per bit).
    pub fn xor32(&mut self, a: u32, b: u32) -> u32 {
        self.map2(a, b, Self::xor)
    }

    /// Bitwise `!a` (one NAND per bit).
    pub fn not32(&mut self, a: u32) -> u32 {
        let mut out = 0u32;
        for i in 0..32 {
            if self.not(a >> i & 1 == 1) {
                out |= 1 << i;
            }
        }
        out
    }

    /// Bitwise `(a & b) | (c & d)` — one composed gate per bit; the
    /// workhorse of the SHA-1 round functions.
    pub fn and_and_or32(&mut self, a: u32, b: u32, c: u32, d: u32) -> u32 {
        let mut out = 0u32;
        for i in 0..32 {
            if self.and_and_or(
                a >> i & 1 == 1,
                b >> i & 1 == 1,
                c >> i & 1 == 1,
                d >> i & 1 == 1,
            ) {
                out |= 1 << i;
            }
        }
        out
    }

    /// One-bit full adder on weird gates: two XORs for the sum and one
    /// AND-AND-OR for the carry — exactly the §5.2 construction.
    pub fn full_adder(&mut self, a: bool, b: bool, cin: bool) -> (bool, bool) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        // carry = (a & b) | (cin & (a ^ b))
        let carry = self.and_and_or(a, b, cin, axb);
        (sum, carry)
    }

    /// 32-bit wrapping addition as a ripple-carry chain of
    /// [`Skelly::full_adder`]s. No architectural `add` touches the
    /// operands.
    pub fn add32(&mut self, a: u32, b: u32) -> u32 {
        let mut out = 0u32;
        let mut carry = false;
        for i in 0..32 {
            let (s, c) = self.full_adder(a >> i & 1 == 1, b >> i & 1 == 1, carry);
            if s {
                out |= 1 << i;
            }
            carry = c;
        }
        out
    }

    /// 32-bit rotate left. Pure rewiring — no logic, so architectural
    /// (the paper's skelly provides the same convenience).
    pub fn rotl32(&self, x: u32, n: u32) -> u32 {
        x.rotate_left(n)
    }

    /// 32-bit logical shift left (rewiring).
    pub fn shl32(&self, x: u32, n: u32) -> u32 {
        if n >= 32 {
            0
        } else {
            x << n
        }
    }

    /// 32-bit logical shift right (rewiring).
    pub fn shr32(&self, x: u32, n: u32) -> u32 {
        if n >= 32 {
            0
        } else {
            x >> n
        }
    }

    fn map2(&mut self, a: u32, b: u32, mut op: impl FnMut(&mut Self, bool, bool) -> bool) -> u32 {
        let mut out = 0u32;
        for i in 0..32 {
            if op(self, a >> i & 1 == 1, b >> i & 1 == 1) {
                out |= 1 << i;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sk() -> Skelly {
        Skelly::quiet(11).unwrap()
    }

    #[test]
    fn word_logic_matches_alu() {
        let mut sk = sk();
        let pairs = [
            (0u32, 0u32),
            (0xFFFF_FFFF, 0x0000_0001),
            (0xDEAD_BEEF, 0x1234_5678),
            (0xAAAA_AAAA, 0x5555_5555),
        ];
        for (a, b) in pairs {
            assert_eq!(sk.and32(a, b), a & b, "and32({a:#x},{b:#x})");
            assert_eq!(sk.or32(a, b), a | b);
            assert_eq!(sk.xor32(a, b), a ^ b);
        }
        assert_eq!(sk.not32(0xF0F0_F0F0), 0x0F0F_0F0F);
    }

    #[test]
    fn adder_handles_carries() {
        let mut sk = sk();
        let cases = [
            (0u32, 0u32),
            (1, 1),
            (0xFFFF_FFFF, 1), // full wraparound
            (0x7FFF_FFFF, 1), // carry into the sign bit
            (0xFFFF_0000, 0x0001_0000),
            (0x89AB_CDEF, 0x7654_3210),
        ];
        for (a, b) in cases {
            assert_eq!(sk.add32(a, b), a.wrapping_add(b), "add32({a:#x},{b:#x})");
        }
    }

    #[test]
    fn full_adder_truth_table() {
        let mut sk = sk();
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            let (sum, carry) = sk.full_adder(a, b, c);
            let total = a as u32 + b as u32 + c as u32;
            assert_eq!(sum, total & 1 == 1);
            assert_eq!(carry, total >= 2);
        }
    }

    #[test]
    fn and_and_or32_matches_reference() {
        let mut sk = sk();
        let (a, b, c, d) = (0xF0F0_F0F0u32, 0xFF00_FF00, 0x0F0F_0F0F, 0x00FF_00FF);
        assert_eq!(sk.and_and_or32(a, b, c, d), (a & b) | (c & d));
    }

    #[test]
    fn rotates_and_shifts() {
        let sk = sk();
        assert_eq!(sk.rotl32(0x8000_0001, 1), 0x0000_0003);
        assert_eq!(sk.shl32(1, 31), 0x8000_0000);
        assert_eq!(sk.shl32(1, 32), 0);
        assert_eq!(sk.shr32(0x8000_0000, 31), 1);
        assert_eq!(sk.shr32(1, 40), 0);
    }
}
