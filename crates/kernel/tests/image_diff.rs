//! `diff_images`: which regions and words the fuzz oracle's image
//! comparison reads, and that it reports every differing word.

use ksplice_kernel::{diff_images, Kernel, Perms, KBASE};
use ksplice_lang::{Options, SourceTree};

/// One unit with a 32-word `.bss` table and a function to read it.
fn boot() -> Kernel {
    let mut tree = SourceTree::new();
    tree.insert(
        "m.kc",
        "int table[32];\nint peek(int i) {\n    return table[i];\n}\n",
    );
    Kernel::boot(&tree, &Options::distro()).unwrap()
}

fn start_of(kernel: &Kernel, region: &str) -> u64 {
    kernel
        .mem
        .regions()
        .iter()
        .find(|r| r.name == region)
        .unwrap_or_else(|| panic!("no region {region}"))
        .start
}

fn poke_word(kernel: &mut Kernel, region: &str, word: u64, value: u64) {
    let addr = start_of(kernel, region) + word * 8;
    kernel.mem.poke(addr, &value.to_le_bytes()).unwrap();
}

/// Maps `name` with `size` bytes and writes `fill` into its first word.
fn map_region(kernel: &mut Kernel, name: &str, size: u64, perms: Perms, fill: u64) {
    let start = kernel.mem.alloc_region(name, size, 8, perms).unwrap();
    kernel.mem.poke(start, &fill.to_le_bytes()).unwrap();
}

#[test]
fn every_differing_word_in_a_region_is_reported() {
    let reference = boot();
    let mut subject = boot();
    for word in 0..12 {
        poke_word(&mut subject, "m.kc:.bss", word, 100 + word);
    }
    let deltas = diff_images(&reference, &subject);
    assert_eq!(deltas.len(), 12, "{deltas:?}");
    for (word, d) in (0..12u64).zip(&deltas) {
        assert_eq!(d.region, "m.kc:.bss");
        assert_eq!(d.offset, word * 8);
        assert_eq!((d.reference, d.subject), (0, 100 + word));
    }
}

#[test]
fn exec_stack_heap_and_unpaired_regions_are_skipped() {
    let mut reference = boot();
    let mut subject = boot();
    // Patched text.
    poke_word(&mut subject, "m.kc:.text", 0, 0x1234);
    // The subject's apply machinery allocates from the heap.
    poke_word(&mut subject, "kheap", 0, 77);
    // Stacks are scratch space.
    map_region(&mut reference, "stack:probe", 64, Perms::DATA, 1);
    map_region(&mut subject, "stack:probe", 64, Perms::DATA, 2);
    // A region one side maps and the other does not.
    map_region(&mut subject, "only-subject", 64, Perms::DATA, 3);
    // Same name, different sizes.
    map_region(&mut reference, "resized", 64, Perms::DATA, 4);
    map_region(&mut subject, "resized", 128, Perms::DATA, 5);
    // Same name and size, but executable.
    map_region(&mut reference, "code", 64, Perms::TEXT, 6);
    map_region(&mut subject, "code", 64, Perms::TEXT, 7);
    assert!(diff_images(&reference, &subject).is_empty());

    // Control: a paired, same-sized data region is compared.
    map_region(&mut reference, "paired", 64, Perms::DATA, 8);
    map_region(&mut subject, "paired", 64, Perms::DATA, 9);
    let deltas = diff_images(&reference, &subject);
    assert_eq!(deltas.len(), 1, "{deltas:?}");
    assert_eq!(deltas[0].region, "paired");
}

#[test]
fn words_holding_arena_pointers_are_masked() {
    let mut reference = boot();
    let mut subject = boot();
    // A pointer on one side only, then pointers on both sides.
    poke_word(&mut reference, "m.kc:.bss", 0, KBASE + 0x100);
    poke_word(&mut subject, "m.kc:.bss", 0, 7);
    poke_word(&mut reference, "m.kc:.bss", 1, KBASE + 8);
    poke_word(&mut subject, "m.kc:.bss", 1, KBASE + 16);
    // A plain value difference is still reported.
    poke_word(&mut reference, "m.kc:.bss", 2, 5);
    poke_word(&mut subject, "m.kc:.bss", 2, 6);
    let deltas = diff_images(&reference, &subject);
    assert_eq!(deltas.len(), 1, "{deltas:?}");
    assert_eq!(
        (deltas[0].offset, deltas[0].reference, deltas[0].subject),
        (16, 5, 6)
    );
}
