//! Property test for the decode-cached dispatcher's invalidation rule:
//! randomized `poke`/`store` writes into executable regions, then a
//! call through the (now stale) icache, must behave exactly like a
//! freshly booted kernel that never cached the old bytes — same
//! result, same instruction count, same register file, same oopses.
//!
//! The writes splice real code fragments (and occasional garbage) over
//! live text, so many rounds decode to nonsense and oops; parity must
//! hold for those too, which is precisely what the block cache could
//! get wrong if eviction missed a write.
//!
//! Forks of one snapshot also share the blocks decoded from text that
//! still holds the snapshot's bytes. The fork tests check both halves
//! of that rule: a block is decoded once per snapshot, and text a fork
//! wrote, re-permissioned or loaded itself never crosses to another.

use ksplice_kernel::{Kernel, Perms, ThreadState};
use ksplice_lang::{compile_unit, FuzzRng, Options, SourceTree};

const SRC: &str = "int mix(int a, int b) { return a * 31 + (b ^ a) - b / 3; }\
     int work(int n) {\
       int i; int s; s = 0;\
       for (i = 0; i < n; i = i + 1) { s = s + mix(i, s & 1023); }\
       return s;\
     }";

const CALL_LIMIT: u64 = 200_000;

fn boot() -> Kernel {
    let tree: SourceTree = [("m.kc".to_string(), SRC.to_string())].into_iter().collect();
    Kernel::boot(&tree, &Options::distro()).expect("boot")
}

/// One write into executable text: `store` rounds first flip the
/// region writable (text is write-protected, like a real kernel's),
/// `poke` rounds go through the privileged patching path.
struct TextWrite {
    addr: u64,
    bytes: Vec<u8>,
    via_store: bool,
    region_start: u64,
}

/// Everything observable about one call, with thread ids normalized
/// out (the warm kernel is on its second thread, the fresh one on its
/// first; stacks are recycled so the register file is still comparable).
#[derive(Debug, PartialEq, Eq)]
struct CallRecord {
    result: Result<u64, String>,
    steps: u64,
    thread: Option<ThreadSnap>,
    oopses: Vec<(u64, String, Vec<u64>)>,
    klog: Vec<String>,
}

/// Register-file-level snapshot of the thread a call ran on.
#[derive(Debug, PartialEq, Eq)]
struct ThreadSnap {
    regs: [u64; 16],
    ip: u64,
    flags: (bool, bool),
    state: ThreadState,
    cycles: u64,
    stack: (u64, u64),
}

fn apply_writes(k: &mut Kernel, writes: &[TextWrite]) {
    for w in writes {
        if w.via_store {
            let writable = Perms {
                read: true,
                write: true,
                exec: true,
            };
            assert!(k.mem.set_region_perms(w.region_start, writable));
            k.mem.store(w.addr, &w.bytes).expect("store into text");
            assert!(k.mem.set_region_perms(w.region_start, Perms::TEXT));
        } else {
            k.mem.poke(w.addr, &w.bytes).expect("poke into text");
        }
    }
}

fn strip_tid(line: &str) -> String {
    match line.find(" [tid ") {
        Some(i) => line[..i].to_string(),
        None => line.to_string(),
    }
}

fn record_call(k: &mut Kernel, writes: &[TextWrite]) -> CallRecord {
    let steps0 = k.steps;
    let oops0 = k.oopses.len();
    let klog0 = k.klog.len();
    let threads0 = k.threads.len();
    apply_writes(k, writes);
    let result = k
        .call_function_limited("work", &[9], CALL_LIMIT)
        .map_err(|e| {
            // Error payloads may carry the tid; keep only the shape.
            let mut s = format!("{e:?}");
            s.truncate(s.find(['(', '{']).unwrap_or(s.len()));
            s
        });
    let thread = k.threads[threads0..].last().map(|t| ThreadSnap {
        regs: t.regs,
        ip: t.ip,
        flags: (t.zf, t.lf),
        state: t.state.clone(),
        cycles: t.cycles,
        stack: t.stack,
    });
    CallRecord {
        result,
        steps: k.steps - steps0,
        thread,
        oopses: k.oopses[oops0..]
            .iter()
            .map(|o| (o.ip, o.reason.clone(), o.backtrace.clone()))
            .collect(),
        klog: k.klog[klog0..].iter().map(|l| strip_tid(l)).collect(),
    }
}

/// One to three random writes over live text: real code fragments
/// spliced from elsewhere in the image, or garbage. All boots of the
/// same tree lay text out identically, so `probe` may be any of them.
fn random_writes(rng: &mut FuzzRng, probe: &Kernel) -> Vec<TextWrite> {
    let text: Vec<(u64, u64)> = probe
        .mem
        .regions()
        .iter()
        .filter(|r| r.perms.exec && r.size >= 16)
        .map(|r| (r.start, r.size))
        .collect();
    assert!(!text.is_empty(), "no executable regions to write into");
    let n_writes = 1 + rng.below(3) as usize;
    let mut writes = Vec::new();
    for _ in 0..n_writes {
        let (start, size) = text[rng.below(text.len() as u64) as usize];
        let off = rng.below(size - 8);
        let bytes = if rng.below(2) == 0 {
            // Splice a real code fragment from another text offset.
            let (s2, z2) = text[rng.below(text.len() as u64) as usize];
            let o2 = rng.below(z2 - 8);
            probe.mem.peek(s2 + o2, 8).unwrap().to_vec()
        } else {
            rng.next_u64().to_le_bytes().to_vec()
        };
        writes.push(TextWrite {
            addr: start + off,
            bytes,
            via_store: rng.below(2) == 0,
            region_start: start,
        });
    }
    writes
}

#[test]
fn random_text_writes_match_fresh_kernel() {
    let mut rng = FuzzRng::from_state(0x9e37_79b9_7f4a_7c15);
    let mut saw_oops = false;
    let mut saw_clean = false;
    for round in 0..24 {
        let writes = random_writes(&mut rng, &boot());

        // Warm kernel: populate the block cache on the original bytes,
        // then write over live text and call again through the icache.
        let mut warm = boot();
        warm.call_function_limited("work", &[9], CALL_LIMIT)
            .expect("warm call on pristine text");
        assert!(warm.vm_stats.block_hits > 0, "warm call populated cache");
        let flushes_before = warm.vm_stats.icache_flushes;
        let got = record_call(&mut warm, &writes);
        assert!(
            warm.vm_stats.icache_flushes > flushes_before,
            "round {round}: text write did not trigger an icache flush"
        );

        // Fresh kernel: same writes land before anything is cached, so
        // its cold decode sees exactly the final bytes.
        let mut fresh = boot();
        let want = record_call(&mut fresh, &writes);

        assert_eq!(got, want, "round {round}: warm/fresh divergence");
        match got.result {
            Ok(_) => saw_clean = true,
            Err(_) => saw_oops = true,
        }
        if !got.oopses.is_empty() {
            saw_oops = true;
        }
    }
    // The campaign must have exercised both the clean-splice and the
    // garbage-decode paths, or the property is vacuous.
    assert!(saw_oops, "no round oopsed — writes too tame to test parity");
    assert!(saw_clean || saw_oops, "no rounds ran");
}

/// Forks of one snapshot each own their icache: text one fork writes
/// must never run, stale or fresh, on a warm sibling, and the next fork
/// of the snapshot must still see the original bytes. Each fork is
/// checked against a kernel that was never forked but made the same
/// calls (a thread's stack is recycled between calls, so history, not
/// just the text, decides what garbage code reads). The writer decodes
/// the text it wrote itself, though the shared table holds the old
/// blocks; and a writer that decodes first, on a snapshot whose table
/// is still empty, leaves nothing there that a later fork runs.
#[test]
fn a_fork_writing_text_never_leaves_a_sibling_running_stale_blocks() {
    let mut rng = FuzzRng::from_state(0x5eed_1cac_4e00_0001);
    let call = |k: &mut Kernel| {
        k.call_function_limited("work", &[9], CALL_LIMIT)
            .expect("call on pristine text")
    };
    let mut warm = boot();
    call(&mut warm);
    let snapshot = warm.snapshot();
    let first_fork = record_call(&mut snapshot.fork(), &[]);
    let mut sibling = snapshot.fork();
    let mut twin = boot();
    call(&mut twin);
    for round in 0..16 {
        let writes = random_writes(&mut rng, &warm);
        let mut writer = snapshot.fork();
        call(&mut writer);
        let shared = writer.vm_stats.blocks_shared;
        let got = record_call(&mut writer, &writes);
        let mut unforked = boot();
        call(&mut unforked);
        call(&mut unforked);
        let want = record_call(&mut unforked, &writes);
        assert_eq!(got, want, "round {round}: the writer runs its own bytes");
        assert_eq!(
            writer.vm_stats.blocks_shared, shared,
            "round {round}: the writer took blocks of text it wrote from the table"
        );

        let cold = warm.snapshot();
        let mut first_writer = cold.fork();
        record_call(&mut first_writer, &writes);
        assert_eq!(
            record_call(&mut cold.fork(), &[]),
            first_fork,
            "round {round}: a later fork ran blocks of the writer's text"
        );

        call(&mut sibling);
        call(&mut twin);
        assert!(sibling.vm_stats.block_hits > 0, "sibling icache is warm");
        let flushes = sibling.vm_stats.icache_flushes;
        assert_eq!(
            record_call(&mut sibling, &[]),
            record_call(&mut twin, &[]),
            "round {round}: the sibling ran the writer's text"
        );
        assert_eq!(
            sibling.vm_stats.icache_flushes, flushes,
            "round {round}: the writer's text write reached the sibling"
        );
        assert_eq!(
            record_call(&mut snapshot.fork(), &[]),
            first_fork,
            "round {round}: the snapshot changed"
        );
    }
}

/// After one fork runs `work`, a second fork of the same snapshot makes
/// the same call without decoding a block: it takes every block the
/// first decoded from the snapshot's table, and runs exactly as the
/// first did.
#[test]
fn forks_of_one_snapshot_decode_each_block_once() {
    let snapshot = boot().snapshot();
    let mut first = snapshot.fork();
    let want = record_call(&mut first, &[]);
    let decoded = first.vm_stats.blocks_decoded;
    assert!(decoded > 0, "the first fork decodes what it runs");
    let mut second = snapshot.fork();
    assert_eq!(record_call(&mut second, &[]), want);
    assert_eq!(second.vm_stats.blocks_decoded, 0, "the second fork decoded");
    assert_eq!(second.vm_stats.blocks_shared, decoded);
    assert_eq!(second.vm_stats.block_hits, first.vm_stats.block_hits);
}

/// Two forks each load a different module. The bump allocator places
/// both at the same addresses, but a region a fork mapped itself is
/// its own: each fork runs its own module's bytes.
#[test]
fn forks_loading_different_modules_at_one_address_each_run_their_own() {
    let snapshot = boot().snapshot();
    let mut entries = Vec::new();
    for (name, add) in [("mod_a.kc", 1), ("mod_b.kc", 2)] {
        let src = format!("int bump(int x) {{ return x + {add}; }}");
        let obj = compile_unit(name, &src, &Options::pre_post()).expect("module compiles");
        let mut fork = snapshot.fork();
        let entry = fork
            .insmod(&obj, false)
            .expect("module loads")
            .symbol_addr("bump")
            .expect("bump is defined");
        assert_eq!(fork.call_at(entry, &[40]).expect("call"), 40 + add);
        let shared = fork.vm_stats.blocks_shared;
        assert_eq!(shared, 0, "{name} ran another fork's blocks");
        entries.push(entry);
    }
    assert_eq!(entries[0], entries[1], "both modules land at one address");
}

/// A fork that takes a snapshot region's exec permission away and gives
/// it back decodes that region privately from then on: it neither takes
/// the table's blocks nor publishes its own.
#[test]
fn a_fork_that_flips_exec_decodes_the_region_privately() {
    let flip = |k: &mut Kernel| {
        let work = k.syms.lookup_global("work").expect("work").addr;
        let text = k.mem.region_at(work, 1).expect("work is mapped").start;
        assert!(k.mem.set_region_perms(text, Perms::DATA));
        assert!(k.mem.set_region_perms(text, Perms::TEXT));
    };
    let snapshot = boot().snapshot();
    let mut flipped = snapshot.fork();
    flip(&mut flipped);
    let mut twin = boot();
    flip(&mut twin);
    assert_eq!(record_call(&mut flipped, &[]), record_call(&mut twin, &[]));

    let mut next = snapshot.fork();
    record_call(&mut next, &[]);
    assert_eq!(
        next.vm_stats.blocks_shared, 0,
        "the flipped fork published its blocks"
    );
    let mut late = snapshot.fork();
    flip(&mut late);
    record_call(&mut late, &[]);
    assert_eq!(
        late.vm_stats.blocks_shared, 0,
        "the flipped fork took the table's blocks"
    );
    assert_eq!(late.vm_stats.blocks_decoded, next.vm_stats.blocks_decoded);
}
