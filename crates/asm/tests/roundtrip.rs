//! Property tests: encode/decode roundtrips and decoder totality.
//!
//! Inputs come from a test-local seeded xorshift64* generator, so every
//! case replays from its seed and the suite runs offline in tier-1.

use ksplice_asm::{branch_info, decode, decode_len, nop_len_at, BinOp, Cond, Instr, Reg};

/// Generated instructions per property.
const CASES: usize = 200_000;

/// xorshift64* — tiny deterministic PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn reg(&mut self) -> Reg {
        Reg::from_nibble(self.below(16) as u8)
    }

    fn i32(&mut self) -> i32 {
        self.next() as i32
    }

    fn i8(&mut self) -> i8 {
        self.next() as i8
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.below(max_len + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    /// One instruction, every variant equally likely.
    fn instr(&mut self) -> Instr {
        match self.below(27) {
            0 => Instr::Hlt,
            1 => Instr::Ret,
            2 => Instr::Nop1,
            3 => Instr::NopN(2 + self.below(8) as u8),
            4 => Instr::MovRR(self.reg(), self.reg()),
            5 => Instr::MovRI32(self.reg(), self.i32()),
            6 => Instr::MovRI64(self.reg(), self.next()),
            7 => Instr::Ld(self.reg(), self.reg(), self.i32()),
            8 => Instr::St(self.reg(), self.reg(), self.i32()),
            9 => Instr::Ld8(self.reg(), self.reg(), self.i32()),
            10 => Instr::St8(self.reg(), self.reg(), self.i32()),
            11 => Instr::Lea(self.reg(), self.reg(), self.i32()),
            12 => {
                let op = BinOp::from_index(self.below(10) as u8).unwrap();
                Instr::Bin(op, self.reg(), self.reg())
            }
            13 => Instr::AddI(self.reg(), self.i32()),
            14 => Instr::Neg(self.reg()),
            15 => Instr::Not(self.reg()),
            16 => Instr::Cmp(self.reg(), self.reg()),
            17 => Instr::CmpI(self.reg(), self.i32()),
            18 => Instr::Jmp8(self.i8()),
            19 => Instr::Jmp32(self.i32()),
            20 => Instr::Jcc8(self.cond(), self.i8()),
            21 => Instr::Jcc32(self.cond(), self.i32()),
            22 => Instr::Call32(self.i32()),
            23 => Instr::CallR(self.reg()),
            24 => Instr::Push(self.reg()),
            25 => Instr::Pop(self.reg()),
            _ => Instr::Int(self.next() as u8),
        }
    }

    fn cond(&mut self) -> Cond {
        Cond::from_index(self.below(6) as u8).unwrap()
    }
}

/// Every instruction decodes back to itself with the declared length.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = Rng::new(0xa5a5_0001);
    for case in 0..CASES {
        let instr = rng.instr();
        let bytes = instr.to_bytes();
        assert_eq!(bytes.len(), instr.len(), "case {case}: {instr:?}");
        assert_eq!(decode(&bytes), Ok((instr, bytes.len())), "case {case}");
        assert_eq!(
            decode_len(&bytes),
            Ok(bytes.len()),
            "case {case}: {instr:?}"
        );
    }
}

/// The decoder never panics on arbitrary bytes, and decoding is
/// idempotent: re-encoding a decoded instruction (which canonicalises
/// don't-care bits) decodes back to the same instruction and length.
#[test]
fn decoder_total_on_garbage() {
    let mut rng = Rng::new(0xa5a5_0002);
    // A case an earlier property run shrank to.
    let mut inputs = vec![vec![44, 1]];
    inputs.extend((0..CASES).map(|_| rng.bytes(31)));
    for bytes in &inputs {
        if let Ok((instr, len)) = decode(bytes) {
            assert!(len <= bytes.len(), "{bytes:?}");
            assert_eq!(decode(&instr.to_bytes()), Ok((instr, len)), "{bytes:?}");
        }
        // These are total too.
        let _ = nop_len_at(bytes, 0);
        let _ = branch_info(bytes, 0x1000);
    }
}

/// A stream of concatenated instructions decodes instruction by
/// instruction at exactly the encoded boundaries.
#[test]
fn stream_boundaries() {
    let mut rng = Rng::new(0xa5a5_0003);
    for case in 0..CASES / 10 {
        let instrs: Vec<Instr> = (0..1 + rng.below(19)).map(|_| rng.instr()).collect();
        let mut code = Vec::new();
        let mut boundaries = Vec::new();
        for i in &instrs {
            boundaries.push(code.len());
            i.encode(&mut code);
        }
        let mut at = 0usize;
        for (i, &start) in instrs.iter().zip(&boundaries) {
            assert_eq!(at, start, "case {case}");
            let (decoded, len) = decode(&code[at..]).unwrap();
            assert_eq!(&decoded, i, "case {case}");
            at += len;
        }
        assert_eq!(at, code.len(), "case {case}");
    }
}

/// Branch targets honour the next-instruction-relative convention.
#[test]
fn branch_target_convention() {
    let mut rng = Rng::new(0xa5a5_0005);
    for _ in 0..CASES {
        let (rel, addr) = (rng.i32(), rng.below(u64::MAX / 2));
        let j = Instr::Jmp32(rel).to_bytes();
        let info = branch_info(&j, addr).unwrap().unwrap();
        assert_eq!(
            info.target,
            addr.wrapping_add(5).wrapping_add(rel as i64 as u64)
        );
    }
}
