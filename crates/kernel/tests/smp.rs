//! The SMP substrate: per-CPU run queues, seeded interleaved
//! scheduling, and the `stop_machine` barrier rendezvous (paper §5).
//!
//! These tests pin the scheduler model documented in
//! `docs/CONCURRENCY.md`: threads home on a vCPU at spawn and never
//! migrate, the interleaving is a pure function of the scheduling seed,
//! the rendezvous really runs every vCPU before the machine counts as
//! captured, and a barrier timeout releases the machine untouched.
//! `schedule_is_pinned` pins the whole schedule, at one vCPU and at
//! several, across commits.

use ksplice_kernel::{
    Fault, Kernel, RunExit, Site, SmpConfig, StopMachineError, ThreadState, QUANTUM,
};
use ksplice_lang::{Options, SourceTree};

const SPIN: &str = "int go = 1;\n\
int spin() {\n\
    int i;\n\
    i = 0;\n\
    while (go) {\n\
        i = i + 1;\n\
    }\n\
    return i;\n\
}\n\
int napper() {\n\
    msleep(1);\n\
    msleep(1);\n\
    return 7;\n\
}\n";

fn boot_smp(cpus: u32) -> Kernel {
    boot_cfg(SmpConfig::with_cpus(cpus))
}

fn boot_cfg(cfg: SmpConfig) -> Kernel {
    let mut tree = SourceTree::new();
    tree.insert("kernel/spin.kc", SPIN);
    let mut k = Kernel::boot(&tree, &Options::distro()).expect("boot");
    k.configure_smp(cfg);
    k
}

#[test]
fn threads_home_round_robin_and_never_migrate() {
    let mut k = boot_smp(2);
    let tids: Vec<u64> = (0..4).map(|_| k.spawn("spin", &[]).unwrap()).collect();
    for &tid in &tids {
        let t = k.thread(tid).unwrap();
        assert_eq!(u64::from(t.cpu), (tid - 1) % 2, "homed by tid");
    }
    k.run(2_000);
    for &tid in &tids {
        let t = k.thread(tid).unwrap();
        assert_eq!(u64::from(t.cpu), (tid - 1) % 2, "never migrates");
        assert!(t.cycles > 0, "every thread got scheduled");
    }
    // Both vCPUs executed instructions and track a current thread.
    for c in &k.cpus {
        assert!(c.cycles > 0, "cpu {} idle", c.id);
        assert!(c.current.is_some());
        assert_eq!(c.runq.len(), 2);
    }
}

#[test]
fn interleaving_is_deterministic_in_the_seed() {
    let run_once = |seed: u64| -> Vec<u64> {
        let mut k = boot_cfg(SmpConfig::with_cpus(2).with_seed(seed));
        let tids: Vec<u64> = (0..2).map(|_| k.spawn("spin", &[]).unwrap()).collect();
        // An uneven budget: whichever vCPU the seeded rotation lets
        // lead gets a full quantum, the other the remainder.
        assert!(matches!(k.run(100), RunExit::Budget));
        tids.iter()
            .map(|&t| k.thread(t).unwrap().cycles)
            .collect()
    };
    // Same seed → the exact same per-thread instruction counts.
    assert_eq!(run_once(42), run_once(42));
    // The seed genuinely steers the interleaving: across a handful of
    // seeds both lead orders must appear.
    let mut shapes: Vec<Vec<u64>> = (1..=16).map(run_once).collect();
    shapes.dedup();
    assert!(
        shapes.len() > 1,
        "seed never changed the schedule: {shapes:?}"
    );
}

#[test]
fn sleepers_wake_and_exit_under_smp() {
    let mut k = boot_smp(4);
    let tid = k.spawn("napper", &[]).unwrap();
    assert!(matches!(k.run(200_000), RunExit::AllExited));
    assert!(matches!(
        k.thread(tid).unwrap().state,
        ThreadState::Exited(7)
    ));
}

#[test]
fn rendezvous_runs_each_busy_vcpu_one_quantum() {
    let mut k = boot_smp(2);
    for _ in 0..2 {
        k.spawn("spin", &[]).unwrap();
    }
    k.run(1_000);
    let r = k.stop_machine(|_| 99).expect("honest rendezvous");
    assert_eq!(r, 99);
    // Both vCPUs ran their busy thread for exactly one quantum before
    // parking — that is the whole simulated capture cost.
    assert_eq!(k.last_stop_machine_steps, 2 * QUANTUM);
    assert_eq!(k.stop_machine_count, 1);
}

#[test]
fn uniprocessor_capture_is_instant() {
    let mut k = boot_smp(1);
    k.spawn("spin", &[]).unwrap();
    k.run(1_000);
    k.stop_machine(|_| ()).expect("capture");
    assert_eq!(k.last_stop_machine_steps, 0, "N=1 needs no rendezvous");
}

#[test]
fn barrier_stall_times_out_without_running_the_closure() {
    let mut k = boot_smp(4);
    for _ in 0..2 {
        k.spawn("spin", &[]).unwrap();
    }
    k.run(1_000);
    k.arm_fault(Fault::parse("barrier-stall:1").unwrap())
        .unwrap();
    let text_before = k.mem.text_checksum();
    let mut ran = false;
    let err = k.stop_machine(|_| ran = true).unwrap_err();
    let StopMachineError::BarrierTimeout { cpu } = err;
    assert!(cpu < 4, "stalled cpu is one of ours: {cpu}");
    assert!(!ran, "the machine was never captured");
    assert_eq!(k.mem.text_checksum(), text_before, "no text written");
    assert_eq!(k.stop_machine_count, 0, "a timed-out capture doesn't count");
    // The fault had one window; the next capture succeeds.
    k.stop_machine(|_| ()).expect("window exhausted");
    assert_eq!(k.stop_machine_count, 1);
}

#[test]
fn every_capture_consumes_one_armed_barrier_window() {
    let mut k = boot_smp(2);
    k.arm_fault(Fault::parse("barrier-stall:2").unwrap())
        .unwrap();
    // There is one stop_machine: each capture consults the armed stall,
    // so two windows time out and the third captures.
    for _ in 0..2 {
        let err = k.stop_machine(|_| 7).unwrap_err();
        assert!(matches!(err, StopMachineError::BarrierTimeout { .. }));
    }
    assert_eq!(k.stop_machine(|_| 7).unwrap(), 7);
    assert_eq!(k.stop_machine_count, 1);
}

#[test]
fn parked_vcpu_is_a_real_thread_and_is_released_with_the_fault() {
    let mut k = boot_smp(2);
    k.arm_fault(Fault::parse("stack-busy:1").unwrap()).unwrap();
    let addr = 0x4000_1234;
    let tid = k.park_fault_vcpu(addr).expect("parked while windows remain");
    let t = k.thread(tid).unwrap();
    assert_eq!(t.ip, addr, "parked at the patch target's entry");
    assert!(matches!(t.state, ThreadState::Sleeping(_)));
    // Same fault, same parker — no second thread.
    assert_eq!(k.park_fault_vcpu(addr), Some(tid));
    // Burn the fault's only window, as the stack check does.
    assert!(k.faults.fire(Site::StackBusy, |_| "target".into()));
    // Windows exhausted: the parker is reaped and the machine is clean.
    assert_eq!(k.park_fault_vcpu(addr), None);
    assert!(k.thread(tid).is_none(), "parker reaped");
}

#[test]
fn configure_smp_rehomes_existing_threads() {
    let mut k = boot_smp(1);
    let tids: Vec<u64> = (0..4).map(|_| k.spawn("spin", &[]).unwrap()).collect();
    assert!(tids.iter().all(|&t| k.thread(t).unwrap().cpu == 0));
    k.configure_smp(SmpConfig::with_cpus(4));
    for &tid in &tids {
        assert_eq!(u64::from(k.thread(tid).unwrap().cpu), (tid - 1) % 4);
    }
    assert_eq!(k.cpus.len(), 4);
    assert!(k.cpus.iter().all(|c| c.runq.len() == 1));
}

/// The workload of the schedule pin: spinners that run until `halt`,
/// sleepers, yielders and short jobs.
const MIX: &str = "int go = 1;\n\
int total;\n\
int spinner(int k) {\n\
    int i;\n\
    i = 0;\n\
    while (go) {\n\
        i = i + k;\n\
        total = total + 1;\n\
    }\n\
    return i;\n\
}\n\
int sleeper(int n) {\n\
    int i;\n\
    for (i = 0; i < n; i = i + 1) {\n\
        msleep(i + 1);\n\
        total = total + i;\n\
    }\n\
    return n;\n\
}\n\
int yielder(int n) {\n\
    int i;\n\
    for (i = 0; i < n; i = i + 1) {\n\
        yield_cpu();\n\
        total = total + 2;\n\
    }\n\
    return i;\n\
}\n\
int job(int n) {\n\
    int s;\n\
    int i;\n\
    s = 0;\n\
    for (i = 0; i < n; i = i + 1) {\n\
        s = s + i * i;\n\
    }\n\
    return s;\n\
}\n\
int nap(int n) {\n\
    msleep(n);\n\
    return total;\n\
}\n\
int halt() {\n\
    go = 0;\n\
    return total;\n\
}\n";

/// Folds everything a schedule decides: the clocks, every thread's
/// place, registers, cycles and state, and every vCPU's run-queue order
/// and cycles.
fn fold_kernel(fp: &mut ksplice_lang::Fingerprint, k: &Kernel) {
    fp.u64_field(k.steps)
        .u64_field(k.ticks)
        .u64_field(k.last_stop_machine_steps);
    for t in &k.threads {
        fp.u64_field(t.tid)
            .u64_field(u64::from(t.cpu))
            .u64_field(t.ip)
            .u64_field(t.cycles);
        for r in t.regs {
            fp.u64_field(r);
        }
        fp.str_field(&format!("{:?}", t.state));
    }
    for c in &k.cpus {
        fp.u64_field(c.cycles).u64_field(c.runq.len() as u64);
        for &tid in &c.runq {
            fp.u64_field(tid);
        }
    }
}

fn fold_exit(fp: &mut ksplice_lang::Fingerprint, exit: RunExit) {
    fp.str_field(match exit {
        RunExit::Budget => "budget",
        RunExit::AllExited => "all-exited",
    });
}

/// The scheduler's output, pinned across commits: at 1 to 4 vCPUs and
/// three scheduling seeds, a mixed workload runs through budgets that
/// end mid-quantum, on a quantum boundary and far past it, with
/// `stop_machine` captures and a synchronous call in between, until
/// every thread has exited; then a lone sleeper and a parked vCPU run
/// out the clock. `SCHEDULE_DIGEST` was recorded before `run`'s
/// per-topology loops and the rendezvous were folded into one round,
/// in debug and release.
#[test]
fn schedule_is_pinned() {
    const SCHEDULE_DIGEST: u64 = 0x512c_4fce_20d9_cfd3;
    let budgets = [
        0,
        1,
        QUANTUM - 1,
        QUANTUM,
        QUANTUM + 1,
        3 * QUANTUM + 7,
        0,
        500,
        1_000,
        5_000,
    ];
    let mut fp = ksplice_lang::Fingerprint::new();
    for cpus in 1..=4u32 {
        for seed in [1u64, 7, 0x5eed] {
            let mut tree = SourceTree::new();
            tree.insert("kernel/mix.kc", MIX);
            let mut k = Kernel::boot(&tree, &Options::distro()).expect("boot");
            k.configure_smp(SmpConfig::with_cpus(cpus).with_seed(seed));
            for (entry, arg) in [
                ("spinner", 1),
                ("sleeper", 3),
                ("yielder", 20),
                ("job", 40),
                ("spinner", 3),
                ("sleeper", 5),
                ("job", 200),
                ("yielder", 7),
            ] {
                k.spawn(entry, &[arg]).unwrap();
            }
            for (i, &budget) in budgets.iter().enumerate() {
                fold_exit(&mut fp, k.run(budget));
                fold_kernel(&mut fp, &k);
                match i {
                    // Captures mid-workload: the rendezvous runs each
                    // busy vCPU's next thread.
                    2 | 5 | 8 => {
                        let r = k.stop_machine(|k| k.steps).expect("capture");
                        fp.u64_field(r);
                    }
                    // A synchronous call, then a late spawn that joins
                    // the run queues mid-schedule.
                    4 => {
                        let total = k.call_function("job", &[9]).expect("call");
                        fp.u64_field(total);
                        k.spawn("sleeper", &[2]).unwrap();
                    }
                    _ => {}
                }
                fold_kernel(&mut fp, &k);
            }
            // Stop the spinners, then run everything out.
            fp.u64_field(k.call_function("halt", &[]).expect("halt"));
            for budget in [QUANTUM + 1, 20_000, 200_000] {
                fold_exit(&mut fp, k.run(budget));
                fold_kernel(&mut fp, &k);
            }
            fp.u64_field(k.reap_dead() as u64);
            // A lone sleeper: one-step budgets until it sleeps, then zero
            // budgets tick the clock until it wakes.
            let napper = k.spawn("nap", &[3]).unwrap();
            while k.thread(napper).unwrap().state == ThreadState::Runnable {
                fold_exit(&mut fp, k.run(1));
                fold_kernel(&mut fp, &k);
            }
            for _ in 0..4 {
                fold_exit(&mut fp, k.run(0));
                fold_kernel(&mut fp, &k);
            }
            fold_exit(&mut fp, k.run(10_000));
            fold_kernel(&mut fp, &k);
            fp.str_field(&format!("{:?}", k.thread(napper).map(|t| &t.state)));
            // A parked vCPU sleeps forever: the run ticks once and stops.
            k.arm_fault(Fault::parse("stack-busy:1").unwrap()).unwrap();
            let entry = k.syms.lookup_global("job").unwrap().addr;
            k.park_fault_vcpu(entry).expect("parked");
            for budget in [0, 1_000] {
                fold_exit(&mut fp, k.run(budget));
                fold_kernel(&mut fp, &k);
            }
        }
    }
    assert_eq!(
        fp.finish(),
        SCHEDULE_DIGEST,
        "the schedule moved: {:#018x}",
        fp.finish()
    );
}
