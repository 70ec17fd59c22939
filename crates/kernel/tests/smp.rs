//! The SMP substrate: per-CPU run queues, seeded interleaved
//! scheduling, and the `stop_machine` barrier rendezvous (paper §5).
//!
//! These tests pin the scheduler model documented in
//! `docs/CONCURRENCY.md`: threads home on a vCPU at spawn and never
//! migrate, the interleaving is a pure function of the scheduling seed,
//! the rendezvous really runs every vCPU before the machine counts as
//! captured, and a barrier timeout releases the machine untouched.

use ksplice_kernel::{Fault, Kernel, RunExit, SmpConfig, StopMachineError, ThreadState};
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
    let quantum = k.smp.quantum;
    let r = k.stop_machine(|_| 99).expect("honest rendezvous");
    assert_eq!(r, 99);
    // Both vCPUs ran their busy thread for exactly one quantum before
    // parking — that is the whole simulated capture cost.
    assert_eq!(k.last_stop_machine_steps, 2 * quantum);
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
    assert!(k
        .faults
        .stack_check_busy(&[(addr, addr + 64, "target".into())])
        .is_some());
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
