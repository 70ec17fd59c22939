//! Property tests: generated diffs always apply and reverse cleanly, and
//! diff-shaped garbage never panics the parser or the applier.
//!
//! Inputs come from a test-local seeded xorshift64* generator, so every
//! case replays from its seed and the suite runs offline in tier-1.

use ksplice_patch::{make_diff, Patch};

/// Generated edit scripts per property.
const EDITS: usize = 20_000;

/// Generated garbage strings.
const GARBAGE: usize = 50_000;

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

    /// A line matching `[a-z]{0,12}`.
    fn word(&mut self) -> String {
        (0..self.below(13))
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    /// A random file (up to 39 lines) and a random edit script of up to
    /// 7 deletes, inserts and replacements applied to it.
    fn edit(&mut self) -> (Vec<String>, Vec<String>) {
        let old: Vec<String> = (0..self.below(40)).map(|_| self.word()).collect();
        let mut new = old.clone();
        for _ in 0..self.below(8) {
            let pos = (self.below(old.len() as u64 + 1) as usize).min(new.len());
            let kind = self.below(3);
            let text = self.word();
            match kind {
                0 if pos < new.len() => {
                    new.remove(pos);
                }
                1 => new.insert(pos, text),
                _ if pos < new.len() => new[pos] = text,
                _ => {}
            }
        }
        (old, new)
    }

    /// Up to 80 pieces of unified-diff syntax, digits and awkward
    /// characters (CR, tab, backslash, NBSP, U+2003) glued together.
    fn garbage(&mut self) -> String {
        const PIECES: &[&str] = &[
            "--- a/f.kc",
            "+++ b/f.kc",
            "--- /dev/null",
            "+++ /dev/null",
            "@@ -",
            "@@ ",
            " @@",
            " +",
            ",",
            "\n",
            "\r\n",
            "\t",
            "\\",
            "\\ No newline at end of file",
            "\u{a0}",
            "\u{2003}",
            " ",
            "-",
            "+",
            "x",
            "a\\b.kc",
            "0",
            "1",
            "3",
            "9",
            "18446744073709551615",
            "99999999999999999999",
        ];
        (0..self.below(81))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }
}

fn join(lines: &[String]) -> String {
    let mut s = lines.join("\n");
    if !s.is_empty() {
        s.push('\n');
    }
    s
}

/// `make_diff` output parses, applies to reproduce the new file, and
/// reverse-applies to reproduce the old file.
#[test]
fn diff_apply_reverse_roundtrip() {
    let mut rng = Rng::new(0xd1ff_0001);
    for case in 0..EDITS {
        let (old, new) = rng.edit();
        let (old_s, new_s) = (join(&old), join(&new));
        match make_diff("f.kc", &old_s, &new_s) {
            None => assert_eq!(old_s, new_s, "case {case}"),
            Some(text) => {
                let p = Patch::parse(&text).unwrap();
                assert_eq!(p.apply_to(&old_s, "f.kc"), Ok(new_s.clone()), "case {case}");
                assert_eq!(
                    p.reversed().apply_to(&new_s, "f.kc"),
                    Ok(old_s),
                    "case {case}"
                );
            }
        }
    }
}

/// The changed-line count never exceeds a full rewrite and is nonzero
/// whenever the contents differ.
#[test]
fn changed_line_count_bounds() {
    let mut rng = Rng::new(0xd1ff_0002);
    for case in 0..EDITS {
        let (old, new) = rng.edit();
        if let Some(text) = make_diff("f.kc", &join(&old), &join(&new)) {
            let n = Patch::parse(&text).unwrap().changed_line_count();
            assert!(n >= 1, "case {case}");
            assert!(n <= old.len() + new.len(), "case {case}");
        }
    }
}

/// The parser survives diff-shaped garbage, and so does applying and
/// reverse-applying whatever it accepts.
#[test]
fn parser_and_applier_total_on_garbage() {
    let mut rng = Rng::new(0xd1ff_0003);
    let content = "x\n\u{a0}x\n\tx\n";
    for _ in 0..GARBAGE {
        let Ok(p) = Patch::parse(&rng.garbage()) else {
            continue;
        };
        for f in &p.files {
            let _ = p.apply_to(content, &f.path);
            let _ = p.reversed().apply_to(content, &f.path);
        }
        let _ = p.apply_all(&|_| Some(content.to_string()));
    }
}
