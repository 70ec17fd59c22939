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

use ksplice_kernel::{Kernel, Perms, ThreadState};
use ksplice_lang::{Options, SourceTree};

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

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
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
fn random_writes(rng: &mut u64, probe: &Kernel) -> Vec<TextWrite> {
    let text: Vec<(u64, u64)> = probe
        .mem
        .regions()
        .iter()
        .filter(|r| r.perms.exec && r.size >= 16)
        .map(|r| (r.start, r.size))
        .collect();
    assert!(!text.is_empty(), "no executable regions to write into");
    let n_writes = 1 + (xorshift(rng) % 3) as usize;
    let mut writes = Vec::new();
    for _ in 0..n_writes {
        let (start, size) = text[(xorshift(rng) as usize) % text.len()];
        let off = xorshift(rng) % (size - 8);
        let bytes = if xorshift(rng).is_multiple_of(2) {
            // Splice a real code fragment from another text offset.
            let (s2, z2) = text[(xorshift(rng) as usize) % text.len()];
            let o2 = xorshift(rng) % (z2 - 8);
            probe.mem.peek(s2 + o2, 8).unwrap().to_vec()
        } else {
            xorshift(rng).to_le_bytes().to_vec()
        };
        writes.push(TextWrite {
            addr: start + off,
            bytes,
            via_store: xorshift(rng).is_multiple_of(2),
            region_start: start,
        });
    }
    writes
}

#[test]
fn random_text_writes_match_fresh_kernel() {
    let mut rng = 0x9e3779b97f4a7c15u64;
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
/// just the text, decides what garbage code reads).
#[test]
fn a_fork_writing_text_never_leaves_a_sibling_running_stale_blocks() {
    let mut rng = 0x5eed_1cac_4e00_0001u64;
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
        let got = record_call(&mut writer, &writes);
        let mut unforked = boot();
        call(&mut unforked);
        call(&mut unforked);
        let want = record_call(&mut unforked, &writes);
        assert_eq!(got, want, "round {round}: the writer runs its own bytes");

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
