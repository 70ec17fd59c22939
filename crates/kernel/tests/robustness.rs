//! VM and kernel robustness: arithmetic edges, control-flow abuse, W^X.

use ksplice_kernel::{Fault, Kernel, Perms};
use ksplice_lang::{Options, SourceTree};

fn boot(src: &str) -> Kernel {
    let mut tree = SourceTree::new();
    tree.insert("m.kc", src);
    Kernel::boot(&tree, &Options::distro()).unwrap()
}

#[test]
fn shift_counts_mask_like_hardware() {
    let mut k =
        boot("int f(int a, int n) { return a << n; }\nint g(int a, int n) { return a >> n; }");
    // Shift counts are masked to 6 bits, like x86-64.
    assert_eq!(k.call_function("f", &[1, 64]).unwrap(), 1);
    assert_eq!(k.call_function("f", &[1, 65]).unwrap(), 2);
    assert_eq!(k.call_function("g", &[8, 3]).unwrap(), 1);
}

#[test]
fn negative_division_truncates_toward_zero() {
    let mut k =
        boot("int d(int a, int b) { return a / b; }\nint m(int a, int b) { return a % b; }");
    assert_eq!(
        k.call_function("d", &[(-7i64) as u64, 2]).unwrap() as i64,
        -3
    );
    assert_eq!(
        k.call_function("m", &[(-7i64) as u64, 2]).unwrap() as i64,
        -1
    );
}

#[test]
fn indirect_call_to_garbage_oopses_not_panics() {
    let mut k = boot("int f(int p) { int g; g = p; return g(1); }");
    let err = k.call_function("f", &[0x1234]).unwrap_err();
    assert!(err.to_string().contains("oops"), "{err}");
    // Indirect call into a data region is a W^X violation.
    let data = k.mem.alloc_region("trap", 64, 16, Perms::DATA).unwrap();
    let err = k.call_function("f", &[data]).unwrap_err();
    assert!(err.to_string().contains("non-executable"), "{err}");
}

#[test]
fn corrupt_text_outside_the_arena_is_refused() {
    let mut k = boot("int f() { return 1; }");
    let before = k.mem.text_checksum();
    for addr in [u64::MAX, u64::MAX - 1, 0] {
        let err = k
            .arm_fault(Fault::CorruptText { addr: Some(addr) })
            .expect_err("an address outside the arena cannot be corrupted");
        assert!(err.contains("corrupt-text"), "{err}");
    }
    assert_eq!(k.mem.text_checksum(), before);
    assert!(k.faults.fired().is_empty());
}

#[test]
fn jump_into_unmapped_space_oopses() {
    let mut k = boot("int f(int p) { int g; g = p; return g(); }");
    assert!(k.call_function("f", &[0xdead_0000]).is_err());
    assert!(k.oopses.len() == 1);
}

#[test]
fn stack_recycling_supports_many_short_calls() {
    let mut k = boot("int f(int x) { return x * 2; }");
    // Far more calls than the arena could hold un-recycled stacks for.
    for i in 0..5_000u64 {
        assert_eq!(k.call_function("f", &[i]).unwrap(), i * 2);
    }
}

#[test]
fn reap_dead_collects_finished_threads() {
    let mut k = boot("int f() { return 0; }");
    for _ in 0..5 {
        k.spawn("f", &[]).unwrap();
    }
    k.run(100_000);
    assert_eq!(k.threads.len(), 5);
    assert_eq!(k.reap_dead(), 5);
    assert!(k.threads.is_empty());
}

#[test]
fn rmmod_unmaps_module_memory() {
    let mut k = boot("int f() { return 1; }");
    let obj = ksplice_lang::compile_unit(
        "mod.kc",
        "int mod_entry() { return 42; }",
        &Options::pre_post(),
    )
    .unwrap();
    let m = k.insmod(&obj, false).unwrap();
    let entry = m.symbol_addr("mod_entry").unwrap();
    assert_eq!(k.call_at(entry, &[]).unwrap(), 42);
    assert!(k.rmmod(&m.name));
    // Calling into the unloaded module now faults.
    assert!(k.call_at(entry, &[]).is_err());
    assert!(!k.rmmod(&m.name), "double rmmod reports failure");
    // Its kallsyms entries are gone.
    assert!(k.syms.lookup_name("mod_entry").is_empty());
}

/// A module whose second section does not fit is refused whole: the
/// error names that section, no region of the module stays mapped, no
/// byte of it is written, and the bump cursor ends where allocating the
/// sections one by one leaves it, past the first section.
#[test]
fn a_module_that_overflows_the_arena_is_refused_whole() {
    let mut k = boot("int f() { return 1; }");
    let obj = ksplice_lang::compile_unit(
        "mod.kc",
        "int mod_entry() { return 42; }\nint mod_table = 7;",
        &Options::distro(),
    )
    .unwrap();
    let placed: Vec<_> = obj
        .sections
        .iter()
        .filter(|s| s.is_alloc() && s.kind != ksplice_object::SectionKind::Note)
        .collect();
    assert!(placed.len() >= 2, "a two-section module: {placed:?}");
    let (first, second) = (placed[0], placed[1]);
    // Where section-by-section allocation from `cursor` puts the first
    // section's end, and whether the second then fits below the top.
    let top = ksplice_kernel::KBASE + ksplice_kernel::MEM_SIZE;
    let align = |at: u64, a: u64| at.div_ceil(a.max(1)) * a.max(1);
    let first_end = |cursor: u64| align(cursor, u64::from(first.align)) + first.size.max(1);
    let second_fits =
        |cursor: u64| align(first_end(cursor), u64::from(second.align)) + second.size.max(1) <= top;
    // Fill the arena up to the highest cursor where the first section
    // still fits and the second does not.
    let cursor = k
        .mem
        .regions()
        .iter()
        .map(|r| r.start + r.size)
        .max()
        .unwrap();
    let room = (0..4096)
        .find(|&room| first_end(top - room) <= top && !second_fits(top - room))
        .expect("some fill splits the two sections");
    k.mem
        .alloc_region("fill", top - room - cursor, 1, Perms::DATA)
        .unwrap();
    let regions = k.mem.regions().to_vec();
    let text_gen = k.mem.text_generation();

    let err = k.insmod(&obj, false).unwrap_err();
    assert_eq!(
        err,
        ksplice_kernel::LinkError::OutOfMemory {
            section: format!("{}:{}", obj.name, second.name),
        }
    );
    assert_eq!(
        k.mem.regions(),
        &regions[..],
        "no region of the module stays mapped"
    );
    // Unmapping a placed text section retires its generation.
    assert_eq!(
        k.mem.text_generation(),
        text_gen + u64::from(first.flags.exec),
    );
    assert!(k.modules.iter().all(|m| m.name != obj.name));
    // No byte was written where the first section was placed.
    let at = align(top - room, u64::from(first.align));
    let bytes = k.mem.peek(at, first.size).unwrap();
    assert!(
        bytes.iter().all(|&b| b == 0),
        "a refused module wrote {bytes:?}"
    );
    assert_eq!(
        k.mem.alloc_region("next", 0, 1, Perms::DATA),
        Some(first_end(top - room)),
        "the cursor stays past the first section"
    );
}
