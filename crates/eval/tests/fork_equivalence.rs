//! Property: a kernel forked from a snapshot is the kernel it was taken
//! from. Seeded op sequences — SMP reconfiguration, module insertion,
//! load threads, scheduler runs, apply/undo of real corpus updates and
//! syscalls — run in lockstep on a fork and on a reference kernel, and
//! every op outcome plus the final state (whole-image checksum, step and
//! tick clocks, kernel log, oopses, every thread's registers) must agree.
//!
//! Three shapes of the property:
//!
//! * a fork of a never-run snapshot against a fresh `boot_image`;
//! * a fork of a kernel snapshotted mid-sequence (live threads, applied
//!   updates, a warm icache on the original) against that original;
//! * isolation: driving one fork hard leaves the snapshot and a sibling
//!   fork exactly at boot state.
//!
//! Randomness is the repo's seeded xorshift64*, so a failure replays
//! from its seed.

use ksplice_core::trace::Tracer;
use ksplice_core::{ApplyOptions, BuildCache, Ksplice, UpdatePack};
use ksplice_eval::smp::SMP_LOAD_SRC;
use ksplice_eval::{base_tree, corpus, Cve};
use ksplice_kernel::{Kernel, SmpConfig, ThreadState};
use ksplice_lang::{build_tree_cached, compile_unit, Options};
use ksplice_object::{Object, ObjectSet};

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
}

/// Corpus updates the sequences apply and undo.
const SUBSET: [&str; 3] = ["CVE-2006-2451", "CVE-2008-0600", "CVE-2006-2934"];

/// Syscalls the sequences make, with their arguments.
const CALLS: [(&str, &[u64]); 7] = [
    ("sys_getuid", &[]),
    ("sys_prctl", &[99, 0]),
    ("sys_prctl", &[3, 1]),
    ("sys_open", &[1, 0]),
    ("sys_brk", &[0]),
    ("sys_socket", &[7]),
    ("sys_setuid", &[0]),
];

const CALL_LIMIT: u64 = 200_000;

struct Fixture {
    image: ObjectSet,
    load: Object,
    packs: Vec<(&'static str, UpdatePack)>,
}

fn fixture() -> Fixture {
    let base = base_tree();
    let cache = BuildCache::new();
    let (image, _) = build_tree_cached(&base, &Options::distro(), &cache).unwrap();
    let load = compile_unit("fork/load.kc", SMP_LOAD_SRC, &Options::pre_post()).unwrap();
    let cases = corpus();
    let packs = SUBSET
        .iter()
        .map(|id| {
            let case: &Cve = cases.iter().find(|c| c.id == *id).unwrap();
            let opts = ksplice_core::CreateOptions {
                accept_data_changes: case.needs_custom_code(),
                ..Default::default()
            };
            let patch = if case.needs_custom_code() {
                case.full_patch_text()
            } else {
                case.patch_text()
            };
            let (pack, _) = ksplice_core::create_update_cached_traced(
                case.id,
                &base,
                &patch,
                &opts,
                &cache,
                &mut Tracer::disabled(),
            )
            .unwrap();
            (case.id, pack)
        })
        .collect();
    Fixture { image, load, packs }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Smp { cpus: u32, seed: u64 },
    Insmod,
    SpawnLoad,
    Run(u64),
    Apply(usize),
    Undo(usize),
    Call(usize),
}

fn ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.below(10) {
            0 => Op::Smp {
                cpus: 1 + rng.below(3) as u32,
                seed: rng.next(),
            },
            1 => Op::Insmod,
            2 => Op::SpawnLoad,
            3 | 4 => Op::Run(100 + rng.below(3_000)),
            5 => Op::Apply(rng.below(SUBSET.len() as u64) as usize),
            6 => Op::Undo(rng.below(SUBSET.len() as u64) as usize),
            _ => Op::Call(rng.below(CALLS.len() as u64) as usize),
        })
        .collect()
}

/// One kernel under test with the Ksplice state that patches it.
struct Lane {
    kernel: Kernel,
    ks: Ksplice,
    load_entry: Option<u64>,
    log: Vec<String>,
}

impl Lane {
    fn new(kernel: Kernel) -> Lane {
        Lane {
            kernel,
            ks: Ksplice::new(),
            load_entry: None,
            log: Vec::new(),
        }
    }

    /// This lane's kernel, snapshotted and forked, with copies of the
    /// rest of the lane.
    fn fork(&self) -> Lane {
        Lane {
            kernel: self.kernel.snapshot().fork(),
            ks: self.ks.clone(),
            load_entry: self.load_entry,
            log: Vec::new(),
        }
    }

    fn step(&mut self, fx: &Fixture, op: Op) {
        let k = &mut self.kernel;
        let outcome = match op {
            Op::Smp { cpus, seed } => {
                k.configure_smp(SmpConfig::with_cpus(cpus).with_seed(seed));
                String::new()
            }
            Op::Insmod if self.load_entry.is_none() => {
                let m = k.insmod(&fx.load, false).expect("load module inserts");
                self.load_entry = m.symbol_addr("smp_load_main");
                format!("{:?}", m.sections)
            }
            Op::Insmod => "already loaded".to_string(),
            Op::SpawnLoad => match self.load_entry {
                Some(entry) => format!("{:?}", k.spawn_at(entry, &[1_000_000_000], "load")),
                None => "no load module".to_string(),
            },
            Op::Run(steps) => format!("{:?}", k.run(steps)),
            Op::Apply(i) => {
                let (id, pack) = &fx.packs[i];
                if self.ks.live_updates().any(|u| u.id == *id) {
                    "live".to_string()
                } else {
                    let r = self.ks.apply(k, pack, &ApplyOptions::default());
                    format!("{:?}", r.map_err(|e| e.to_string()))
                }
            }
            Op::Undo(i) => {
                let id = fx.packs[i].0;
                if self.ks.live_updates().any(|u| u.id == id) {
                    let r = self.ks.undo_any(k, id, &ApplyOptions::default());
                    format!("{:?}", r.map(|_| ()).map_err(|e| e.to_string()))
                } else {
                    "not live".to_string()
                }
            }
            Op::Call(i) => {
                let (name, args) = CALLS[i];
                let r = k.call_function_limited(name, args, CALL_LIMIT);
                format!("{:?}", r.map_err(|e| e.to_string()))
            }
        };
        self.log.push(format!("{op:?} -> {outcome}"));
    }
}

/// Everything observable about a kernel that the property compares.
fn state(k: &Kernel) -> String {
    let threads: Vec<_> = k
        .threads
        .iter()
        .map(|t| {
            let state = match t.state {
                ThreadState::Runnable => "run".to_string(),
                ThreadState::Sleeping(until) => format!("sleep@{until}"),
                ThreadState::Exited(code) => format!("exit:{code}"),
                ThreadState::Oopsed => "oops".to_string(),
            };
            format!(
                "{}@cpu{} {:?} ip={:#x} zf={} lf={} {state} stack={:?} cycles={}",
                t.tid, t.cpu, t.regs, t.ip, t.zf, t.lf, t.stack, t.cycles
            )
        })
        .collect();
    let oopses: Vec<_> = k
        .oopses
        .iter()
        .map(|o| format!("{} {:#x} {} {:?}", o.tid, o.ip, o.reason, o.backtrace))
        .collect();
    let modules: Vec<&str> = k.modules.iter().map(|m| m.name.as_str()).collect();
    let runqs: Vec<_> = k
        .cpus
        .iter()
        .map(|c| (&c.runq, c.cycles, c.current))
        .collect();
    format!(
        "image={:#x} text={:#x} text_gen={} steps={} ticks={} syms={} smp={:?} stop_machines={}\n\
         modules={modules:?}\nrunqs={runqs:?}\nklog={:?}\noopses={oopses:#?}\nthreads={threads:#?}",
        k.mem.image_checksum(),
        k.mem.text_checksum(),
        k.mem.text_generation(),
        k.steps,
        k.ticks,
        k.syms.len(),
        k.smp,
        k.stop_machine_count,
        k.klog,
    )
}

fn assert_lockstep(seed: u64, a: &Lane, b: &Lane) {
    for (i, (x, y)) in a.log.iter().zip(&b.log).enumerate() {
        assert_eq!(x, y, "seed {seed}: op #{i} diverged");
    }
    assert_eq!(a.log.len(), b.log.len(), "seed {seed}");
    assert_eq!(
        state(&a.kernel),
        state(&b.kernel),
        "seed {seed}: final state"
    );
}

#[test]
fn fork_of_a_boot_snapshot_matches_a_fresh_boot() {
    let fx = fixture();
    let snapshot = Kernel::boot_image(&fx.image).unwrap().snapshot();
    let mut applied = 0;
    for seed in 1..=10u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let seq = ops(&mut rng, 24);
        let mut fresh = Lane::new(Kernel::boot_image(&fx.image).unwrap());
        let mut fork = Lane::new(snapshot.fork());
        assert_eq!(
            state(&fresh.kernel),
            state(&fork.kernel),
            "seed {seed}: at boot"
        );
        for &op in &seq {
            fresh.step(&fx, op);
            fork.step(&fx, op);
        }
        assert_lockstep(seed, &fresh, &fork);
        applied += fresh
            .log
            .iter()
            .filter(|l| l.starts_with("Apply") && l.contains("Ok"))
            .count();
    }
    assert!(
        applied > 0,
        "no sequence applied an update: the property is vacuous"
    );
}

#[test]
fn fork_of_a_running_kernel_continues_like_the_original() {
    let fx = fixture();
    for seed in 11..=20u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let seq = ops(&mut rng, 28);
        let split = 4 + rng.below(16) as usize;
        // Start multi-vCPU with two live load threads, so the fork inherits
        // run queues and a scheduler PRNG that the next `run` draws from.
        let warmup = [
            Op::Smp {
                cpus: 2 + (seed % 2) as u32,
                seed,
            },
            Op::Insmod,
            Op::SpawnLoad,
            Op::SpawnLoad,
        ];
        let mut original = Lane::new(Kernel::boot_image(&fx.image).unwrap());
        for &op in warmup.iter().chain(&seq[..split]) {
            original.step(&fx, op);
        }
        let mut fork = original.fork();
        assert_eq!(
            state(&original.kernel),
            state(&fork.kernel),
            "seed {seed}: at split"
        );
        original.log.clear();
        for &op in &seq[split..] {
            original.step(&fx, op);
            fork.step(&fx, op);
        }
        assert_lockstep(seed, &original, &fork);
    }
}

/// A fleet snapshots each version with its load module already
/// inserted, and every node sets up its own seeded SMP topology on the
/// fork. That swaps the boot → SMP → `insmod` order a node used to run
/// in, so both orders must land in the same kernel and stay in step.
#[test]
fn insmod_before_smp_setup_matches_the_boot_order() {
    let fx = fixture();
    for seed in 1..=4u64 {
        let smp = Op::Smp {
            cpus: 2 + (seed % 3) as u32,
            seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        };
        let mut booted = Lane::new(Kernel::boot_image(&fx.image).unwrap());
        booted.step(&fx, smp);
        booted.step(&fx, Op::Insmod);
        let mut template = Lane::new(Kernel::boot_image(&fx.image).unwrap());
        template.step(&fx, Op::Insmod);
        assert_eq!(template.log[0], booted.log[1], "seed {seed}: module layout");
        let mut node = template.fork();
        node.step(&fx, smp);
        assert_eq!(
            state(&booted.kernel),
            state(&node.kernel),
            "seed {seed}: after setup"
        );
        booted.log.clear();
        node.log.clear();
        let tail = [
            Op::SpawnLoad,
            Op::SpawnLoad,
            Op::Run(2_000),
            Op::Apply(0),
            Op::Call(2),
            Op::Run(1_000),
            Op::Undo(0),
        ];
        for op in tail {
            booted.step(&fx, op);
            node.step(&fx, op);
        }
        assert_lockstep(seed, &booted, &node);
    }
}

#[test]
fn driving_one_fork_leaves_the_snapshot_and_siblings_untouched() {
    let fx = fixture();
    let pristine = state(&Kernel::boot_image(&fx.image).unwrap());
    let snapshot = Kernel::boot_image(&fx.image).unwrap().snapshot();
    let mut sibling = snapshot.fork();
    let mut driven = Lane::new(snapshot.fork());
    // Warm the sibling's icache before the other fork writes text.
    assert_eq!(sibling.call_function("sys_getuid", &[]).unwrap(), 0);
    let sibling_warm = state(&sibling);
    let mut rng = Rng::new(0xf0f0);
    for op in ops(&mut rng, 40) {
        driven.step(&fx, op);
    }
    // Every update applied and reversed, and text poked directly.
    for i in 0..fx.packs.len() {
        driven.step(&fx, Op::Apply(i));
    }
    let text = driven
        .kernel
        .mem
        .regions()
        .iter()
        .find(|r| r.perms.exec)
        .unwrap()
        .start;
    driven.kernel.mem.poke(text, &[0xff; 16]).unwrap();
    assert_ne!(state(&driven.kernel), pristine);

    assert_eq!(state(&sibling), sibling_warm, "a sibling fork changed");
    assert_eq!(state(&snapshot.fork()), pristine, "the snapshot changed");
    let mut fresh = Kernel::boot_image(&fx.image).unwrap();
    for (name, args) in CALLS {
        let want = fresh
            .call_function_limited(name, args, CALL_LIMIT)
            .map_err(|e| e.to_string());
        let got = sibling
            .call_function_limited(name, args, CALL_LIMIT)
            .map_err(|e| e.to_string());
        assert_eq!(got, want, "{name}{args:?} on the sibling");
    }
}

#[test]
fn snapshots_are_shareable_across_threads() {
    fn shareable<T: Send + Sync>() {}
    shareable::<ksplice_kernel::KernelSnapshot>();
}
