//! The simulated kernel: boot, threads, scheduling, `stop_machine`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ksplice_lang::{build_tree, Options, SourceTree};
use ksplice_object::{Object, ObjectSet};

use crate::fault::{Fault, FaultPlan};
use crate::kallsyms::Kallsyms;
use crate::loader::{load_kernel_image, load_module, LinkError, LoadedModule};
use crate::mem::{Memory, Perms};
use crate::native::{native_addr, RETURN_SENTINEL};
use crate::smp::{Cpu, SmpConfig, StopMachineError};

/// Default per-thread kernel stack size (64 KiB).
pub const STACK_SIZE: u64 = 64 * 1024;

/// Scheduler quantum: instructions per slice.
pub const QUANTUM: u64 = 64;

/// A kernel oops: the fatal end of one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oops {
    /// Thread that died.
    pub tid: u64,
    /// Instruction pointer at the fault.
    pub ip: u64,
    /// Human-readable cause.
    pub reason: String,
    /// Instruction pointer plus frame-pointer-chain return addresses.
    pub backtrace: Vec<u64>,
}

/// Run state of a thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible for the next scheduler slice.
    Runnable,
    /// Asleep until the given tick.
    Sleeping(u64),
    /// Finished with an exit code.
    Exited(u64),
    /// Killed by an oops.
    Oopsed,
}

/// One kernel thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id, unique for the kernel's lifetime.
    pub tid: u64,
    /// The vCPU this thread is homed on (0 on a uniprocessor kernel).
    /// Assignment is round-robin by tid at spawn; threads never migrate.
    pub cpu: u32,
    /// Entry-point name, for logs and backtraces.
    pub name: String,
    /// General-purpose registers; r14 is fp, r15 is sp.
    pub regs: [u64; 16],
    /// Instruction pointer.
    pub ip: u64,
    /// Zero flag from the last compare.
    pub zf: bool,
    /// Less-than flag from the last compare.
    pub lf: bool,
    /// Run state.
    pub state: ThreadState,
    /// Stack region bounds (low, high); `sp` starts at `high`.
    pub stack: (u64, u64),
    /// Total instructions executed.
    pub cycles: u64,
}

impl Thread {
    /// The stack pointer.
    pub fn sp(&self) -> u64 {
        self.regs[15]
    }

    /// The frame pointer.
    pub fn fp(&self) -> u64 {
        self.regs[14]
    }
}

/// Why [`Kernel::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// The step budget was exhausted.
    Budget,
    /// No runnable or sleeping threads remain.
    AllExited,
}

/// The running kernel.
pub struct Kernel {
    /// The flat physical memory arena.
    pub mem: Memory,
    /// The kernel symbol table.
    pub syms: Kallsyms,
    /// All threads ever spawned (exited ones stay for inspection).
    pub threads: Vec<Thread>,
    next_tid: u64,
    /// The kernel log (`printk` output).
    pub klog: Vec<String>,
    /// Scheduler tick counter.
    pub ticks: u64,
    /// Total instructions executed across all threads — the step clock
    /// that timestamps trace events (`Event::ts_steps`).
    pub steps: u64,
    /// All oopses so far (the kernel limps on, like a real one).
    pub oopses: Vec<Oops>,
    /// Loaded boot-image units and run-time modules. Shared, because
    /// a loaded module never changes: forks of a snapshot copy pointers.
    pub modules: Vec<Arc<LoadedModule>>,
    /// kmalloc free list: (addr, size).
    pub(crate) free_list: Vec<(u64, u64)>,
    /// Shadow data structures: (object addr, key) → shadow addr
    /// (paper §5.3 / DynAMOS).
    pub(crate) shadows: HashMap<(u64, u64), u64>,
    /// Deterministic PRNG state for the `random` native.
    pub(crate) rng: u64,
    /// Cached address of the kernel's `do_syscall`, if it exports one.
    pub(crate) syscall_entry: Option<u64>,
    /// Recycled thread stacks: (low, high) pairs ready for reuse (the
    /// arena is a bump allocator, so reaped stacks must be recycled or
    /// workloads that spawn many short-lived threads exhaust it).
    free_stacks: Vec<(u64, u64)>,
    /// Wall-clock duration of the most recent `stop_machine` call.
    pub last_stop_machine: Option<Duration>,
    /// Simulated pause of the most recent `stop_machine`, in VM steps:
    /// the barrier-rendezvous instructions (vCPUs finishing their
    /// current quantum, N ≥ 2 only) plus whatever the stopped-machine
    /// closure itself executed. Deterministic, unlike the wall clock.
    pub last_stop_machine_steps: u64,
    /// Count of `stop_machine` invocations.
    pub stop_machine_count: u64,
    /// The SMP topology: vCPU count, quantum, scheduling seed. The
    /// default (1 vCPU) is bit-exact with the historical sequential
    /// scheduler; see [`Kernel::configure_smp`].
    pub smp: SmpConfig,
    /// The vCPUs, each with its own run queue (`smp.cpus` entries).
    pub cpus: Vec<Cpu>,
    /// Seeded state for the per-round rotation draw (`cpus > 1` only).
    sched_rng: u64,
    /// The physically parked fault thread realizing an armed stack-busy
    /// fault at N ≥ 2 (see [`Kernel::park_fault_vcpu`]).
    fault_parker: Option<u64>,
    /// Armed fault-injection state (inert by default; see [`FaultPlan`]).
    pub faults: FaultPlan,
    /// The PC-sampling profiler, armed by [`Kernel::start_sampling`]
    /// (inert — one branch per step — otherwise).
    pub(crate) profiler: Option<crate::profiler::Profiler>,
    /// Predecoded basic blocks keyed by entry address — the VM's
    /// icache (see `vm.rs`).
    pub(crate) block_cache: crate::vm::AddrMap<crate::vm::CachedBlock>,
    /// `mem.text_generation()` as of the last icache sweep; a
    /// difference means stale blocks may be cached.
    pub(crate) icache_clock: u64,
    /// Counters for the decode-cached dispatcher: hits, decodes,
    /// flush sweeps, evictions.
    pub vm_stats: crate::vm::VmStats,
}

impl Kernel {
    /// Builds a source tree with the given options and boots the result.
    pub fn boot(tree: &SourceTree, opts: &Options) -> Result<Kernel, BootError> {
        let set = build_tree(tree, opts).map_err(BootError::Compile)?;
        Kernel::boot_image(&set)
    }

    /// Boots a prebuilt kernel image with an explicit SMP topology.
    /// `boot_image_smp(set, &SmpConfig::default())` is identical to
    /// [`Kernel::boot_image`].
    pub fn boot_image_smp(set: &ObjectSet, smp: &SmpConfig) -> Result<Kernel, BootError> {
        let mut k = Kernel::boot_image(set)?;
        k.configure_smp(smp.clone());
        Ok(k)
    }

    /// Reconfigures the SMP topology: rebuilds the per-CPU run queues
    /// and re-homes every existing thread round-robin by tid. Typically
    /// called right after boot, before workloads spawn; calling it on a
    /// running kernel re-homes live threads deterministically. `cpus`
    /// and `quantum` clamp to ≥ 1, and the scheduler rotation restarts
    /// from `sched_seed`.
    pub fn configure_smp(&mut self, mut smp: SmpConfig) {
        smp.cpus = smp.cpus.max(1);
        smp.quantum = smp.quantum.max(1);
        self.sched_rng = smp.sched_seed.max(1);
        self.cpus = (0..smp.cpus).map(Cpu::new).collect();
        let n = smp.cpus as u64;
        self.smp = smp;
        for t in &mut self.threads {
            t.cpu = ((t.tid - 1) % n) as u32;
        }
        let homed: Vec<(u64, u32)> = self.threads.iter().map(|t| (t.tid, t.cpu)).collect();
        for (tid, cpu) in homed {
            self.cpus[cpu as usize].runq.push_back(tid);
        }
    }

    /// The number of vCPUs this kernel schedules across.
    pub fn num_cpus(&self) -> u32 {
        self.smp.cpus
    }

    /// Boots a prebuilt kernel image.
    pub fn boot_image(set: &ObjectSet) -> Result<Kernel, BootError> {
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        let modules = load_kernel_image(&mut mem, &mut syms, set, &|n| native_addr(n))
            .map_err(BootError::Link)?;
        // The image's symbols form the shared prefix: forks share them
        // and unloading a module never re-indexes them.
        syms.freeze();
        // Heap arena for kmalloc.
        let heap_base = mem
            .alloc_region("kheap", 8 * 1024 * 1024, 16, Perms::DATA)
            .ok_or(BootError::NoMemory)?;
        let syscall_entry = syms.lookup_global("do_syscall").map(|s| s.addr);
        // The icache starts clean: in sync with the arena's text clock
        // (image loading bumped it; there are no cached blocks yet).
        let mem_text_gen = mem.text_generation();
        Ok(Kernel {
            mem,
            syms,
            threads: Vec::new(),
            next_tid: 1,
            klog: Vec::new(),
            ticks: 0,
            steps: 0,
            oopses: Vec::new(),
            modules: modules.into_iter().map(Arc::new).collect(),
            free_list: vec![(heap_base, 8 * 1024 * 1024)],
            shadows: HashMap::new(),
            rng: 0x2545_f491_4f6c_dd1d,
            syscall_entry,
            free_stacks: Vec::new(),
            last_stop_machine: None,
            last_stop_machine_steps: 0,
            stop_machine_count: 0,
            smp: SmpConfig::default(),
            cpus: vec![Cpu::new(0)],
            sched_rng: crate::smp::DEFAULT_SCHED_SEED,
            fault_parker: None,
            faults: FaultPlan::default(),
            profiler: None,
            block_cache: crate::vm::AddrMap::default(),
            icache_clock: mem_text_gen,
            vm_stats: crate::vm::VmStats::default(),
        })
    }

    /// Takes an immutable snapshot of the whole kernel: memory, symbol
    /// table, modules, threads, clocks, allocator, PRNG, scheduler and
    /// fault state. See [`KernelSnapshot`].
    pub fn snapshot(&self) -> KernelSnapshot {
        let frozen = self.copy();
        // Hash the text here once, so no fork hashes it again.
        frozen.mem.text_checksum();
        KernelSnapshot { frozen }
    }

    /// A copy of this kernel with an empty icache. Memory copies only
    /// the pages ever written; the symbol table is frozen, so copies of
    /// the copy share it.
    fn copy(&self) -> Kernel {
        let mem = self.mem.fork();
        let icache_clock = mem.text_generation();
        let mut syms = self.syms.clone();
        syms.freeze();
        Kernel {
            mem,
            syms,
            threads: self.threads.clone(),
            next_tid: self.next_tid,
            klog: self.klog.clone(),
            ticks: self.ticks,
            steps: self.steps,
            oopses: self.oopses.clone(),
            modules: self.modules.clone(),
            free_list: self.free_list.clone(),
            shadows: self.shadows.clone(),
            rng: self.rng,
            syscall_entry: self.syscall_entry,
            free_stacks: self.free_stacks.clone(),
            last_stop_machine: self.last_stop_machine,
            last_stop_machine_steps: self.last_stop_machine_steps,
            stop_machine_count: self.stop_machine_count,
            smp: self.smp.clone(),
            cpus: self.cpus.clone(),
            sched_rng: self.sched_rng,
            fault_parker: self.fault_parker,
            faults: self.faults.clone(),
            profiler: self.profiler.clone(),
            block_cache: crate::vm::AddrMap::default(),
            icache_clock,
            vm_stats: self.vm_stats,
        }
    }

    /// Spawns a kernel thread at the function named `entry` with up to six
    /// arguments, returning its tid.
    pub fn spawn_named(
        &mut self,
        entry: &str,
        args: &[u64],
        name: &str,
    ) -> Result<u64, SpawnError> {
        let sym = self
            .syms
            .lookup_global(entry)
            .ok_or_else(|| SpawnError::NoEntry(entry.to_string()))?;
        let addr = sym.addr;
        self.spawn_at(addr, args, name)
    }

    /// Spawns a kernel thread at an absolute address.
    pub fn spawn_at(&mut self, addr: u64, args: &[u64], name: &str) -> Result<u64, SpawnError> {
        assert!(args.len() <= 6, "at most 6 arguments");
        let tid = self.next_tid;
        self.next_tid += 1;
        let (low, high) = match self.free_stacks.pop() {
            Some(pair) => pair,
            None => {
                let low = self
                    .mem
                    .alloc_region(&format!("stack:{tid}"), STACK_SIZE, 16, Perms::DATA)
                    .ok_or(SpawnError::NoMemory)?;
                (low, low + STACK_SIZE)
            }
        };
        let mut regs = [0u64; 16];
        for (i, &a) in args.iter().enumerate() {
            regs[1 + i] = a;
        }
        // Push the return sentinel so returning from the entry exits.
        let sp = high - 8;
        self.mem
            .store_u64(sp, RETURN_SENTINEL)
            .map_err(|_| SpawnError::NoMemory)?;
        regs[15] = sp;
        regs[14] = high; // fp: sentinel frame
        let cpu = ((tid - 1) % self.cpus.len() as u64) as u32;
        self.cpus[cpu as usize].runq.push_back(tid);
        self.threads.push(Thread {
            tid,
            cpu,
            name: name.to_string(),
            regs,
            ip: addr,
            zf: false,
            lf: false,
            state: ThreadState::Runnable,
            stack: (low, high),
            cycles: 0,
        });
        Ok(tid)
    }

    /// Spawns with a default name.
    pub fn spawn(&mut self, entry: &str, args: &[u64]) -> Result<u64, SpawnError> {
        let name = format!("kthread-{entry}");
        self.spawn_named(entry, args, &name)
    }

    /// Looks up a thread.
    pub fn thread(&self, tid: u64) -> Option<&Thread> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    pub(crate) fn thread_mut(&mut self, tid: u64) -> Option<&mut Thread> {
        self.threads.iter_mut().find(|t| t.tid == tid)
    }

    /// The preemptive scheduler: runs up to `max_steps` instructions in
    /// quantum-sized slices. At one vCPU (the default) this is the
    /// historical sequential round-robin, bit-exact; at `cpus > 1` it
    /// is the interleaved SMP simulation of [`SmpConfig`] — each
    /// scheduling round visits the vCPUs in a seeded rotation and runs
    /// each vCPU's next runnable thread for one quantum.
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        if self.smp.cpus <= 1 {
            self.run_uni(max_steps)
        } else {
            self.run_smp(max_steps)
        }
    }

    /// The uniprocessor scheduler (`cpus == 1`): a plain round-robin
    /// over all threads in spawn order, every runnable thread each tick.
    /// `run_smp` at N = 1 is a different schedule (one thread per tick,
    /// rotation kept across calls), so every single-CPU artifact (fuzz
    /// digests, trace timestamps) is pinned to this one (DESIGN §14).
    fn run_uni(&mut self, max_steps: u64) -> RunExit {
        let mut budget = self.faults.jitter_budget(max_steps);
        loop {
            let mut progressed = false;
            let tids: Vec<u64> = self.threads.iter().map(|t| t.tid).collect();
            for tid in tids {
                // Wake sleepers whose deadline has passed.
                let ticks = self.ticks;
                if let Some(t) = self.thread_mut(tid) {
                    if let ThreadState::Sleeping(until) = t.state {
                        if ticks >= until {
                            t.state = ThreadState::Runnable;
                        }
                    }
                }
                let runnable = matches!(
                    self.thread(tid).map(|t| &t.state),
                    Some(ThreadState::Runnable)
                );
                if !runnable {
                    continue;
                }
                progressed = true;
                let slice = self.smp.quantum.min(budget);
                let used = self.run_slice(tid, slice);
                budget -= used;
                if budget == 0 {
                    return RunExit::Budget;
                }
            }
            self.ticks += 1;
            let any_alive = self
                .threads
                .iter()
                .any(|t| matches!(t.state, ThreadState::Runnable | ThreadState::Sleeping(_)));
            if !any_alive {
                return RunExit::AllExited;
            }
            if !progressed {
                // Only sleepers remain; advance time — unless none of
                // them can ever wake (a parked vCPU sleeps until
                // `u64::MAX`), in which case ticking forever would
                // never consume the budget.
                if !self.any_finite_sleeper() {
                    return RunExit::Budget;
                }
                continue;
            }
        }
    }

    /// Whether any live thread has a wake-up deadline that can
    /// actually arrive. Threads parked by [`Kernel::park_fault_vcpu`]
    /// sleep until `u64::MAX` and must not keep the tick loop alive.
    fn any_finite_sleeper(&self) -> bool {
        self.threads.iter().any(|t| {
            matches!(t.state, ThreadState::Sleeping(until) if until < u64::MAX)
        })
    }

    /// The interleaved SMP scheduler (`cpus > 1`). One host thread
    /// plays every vCPU: each round starts from a seeded lead CPU and
    /// gives each vCPU's next runnable thread one quantum, so the
    /// global instruction interleaving is deterministic in
    /// ([`SmpConfig::sched_seed`], workload) while still exhibiting the
    /// cross-CPU overlap `stop_machine` has to fight.
    fn run_smp(&mut self, max_steps: u64) -> RunExit {
        let mut budget = self.faults.jitter_budget(max_steps);
        let ncpus = self.cpus.len();
        loop {
            let mut progressed = false;
            let lead = (self.sched_next() % ncpus as u64) as usize;
            for i in 0..ncpus {
                let cpu = (lead + i) % ncpus;
                let Some(tid) = self.pick_next(cpu) else {
                    continue;
                };
                progressed = true;
                let slice = self.smp.quantum.min(budget);
                let used = self.run_slice(tid, slice);
                self.cpus[cpu].cycles += used;
                budget = budget.saturating_sub(used);
                if budget == 0 {
                    return RunExit::Budget;
                }
            }
            self.ticks += 1;
            let any_alive = self
                .threads
                .iter()
                .any(|t| matches!(t.state, ThreadState::Runnable | ThreadState::Sleeping(_)));
            if !any_alive {
                return RunExit::AllExited;
            }
            if !progressed {
                // Only sleepers remain; advance time (see run_uni for
                // the forever-sleeper guard).
                if !self.any_finite_sleeper() {
                    return RunExit::Budget;
                }
                continue;
            }
        }
    }

    /// Rotates vCPU `cpu`'s run queue to its next runnable thread:
    /// wakes due sleepers on the way, skips (but keeps) sleeping and
    /// dead entries, drops tids whose thread no longer exists. The
    /// chosen thread moves to the back of the queue — round-robin —
    /// and becomes the vCPU's `current`.
    fn pick_next(&mut self, cpu: usize) -> Option<u64> {
        let len = self.cpus[cpu].runq.len();
        for _ in 0..len {
            let Some(tid) = self.cpus[cpu].runq.pop_front() else {
                break;
            };
            let ticks = self.ticks;
            let Some(t) = self.thread_mut(tid) else {
                continue; // reaped elsewhere; drop the stale entry
            };
            if let ThreadState::Sleeping(until) = t.state {
                if ticks >= until {
                    t.state = ThreadState::Runnable;
                }
            }
            let runnable = matches!(t.state, ThreadState::Runnable);
            self.cpus[cpu].runq.push_back(tid);
            if runnable {
                self.cpus[cpu].current = Some(tid);
                return Some(tid);
            }
        }
        self.cpus[cpu].current = None;
        None
    }

    /// xorshift64* draw for the scheduler rotation.
    fn sched_next(&mut self) -> u64 {
        let mut x = self.sched_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.sched_rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Runs a single thread synchronously until it exits, oopses, or the
    /// step limit is hit. Returns its exit code.
    ///
    /// This is how Ksplice invokes custom hook code (paper §5.3) and how
    /// tests call kernel functions directly.
    pub fn call_function(&mut self, entry: &str, args: &[u64]) -> Result<u64, CallError> {
        let addr = self
            .syms
            .lookup_global(entry)
            .map(|s| s.addr)
            .ok_or_else(|| CallError::NoEntry(entry.to_string()))?;
        self.call_at(addr, args)
    }

    /// Like [`Kernel::call_function`] but with an explicit step budget —
    /// the fuzzer's differential runner uses a tight budget so a mutant
    /// that loops forever costs milliseconds, not seconds.
    pub fn call_function_limited(
        &mut self,
        entry: &str,
        args: &[u64],
        limit: u64,
    ) -> Result<u64, CallError> {
        let addr = self
            .syms
            .lookup_global(entry)
            .map(|s| s.addr)
            .ok_or_else(|| CallError::NoEntry(entry.to_string()))?;
        self.call_at_limited(addr, args, limit)
    }

    /// Like [`Kernel::call_function`] but with an absolute entry address.
    pub fn call_at(&mut self, addr: u64, args: &[u64]) -> Result<u64, CallError> {
        self.call_at_limited(addr, args, 50_000_000)
    }

    /// [`Kernel::call_at`] with an explicit step budget.
    pub fn call_at_limited(
        &mut self,
        addr: u64,
        args: &[u64],
        limit: u64,
    ) -> Result<u64, CallError> {
        let tid = self
            .spawn_at(addr, args, "call")
            .map_err(CallError::Spawn)?;
        let mut steps = 0u64;
        loop {
            let used = self.run_slice(tid, 4096);
            steps += used;
            match &self.thread(tid).expect("thread exists").state {
                ThreadState::Exited(code) => {
                    let code = *code;
                    self.reap(tid);
                    return Ok(code);
                }
                ThreadState::Oopsed => {
                    let oops = self.oopses.last().cloned();
                    self.reap(tid);
                    return Err(CallError::Oops(Box::new(oops.expect("oops recorded"))));
                }
                ThreadState::Sleeping(_) => {
                    // A synchronous call may sleep; advance time.
                    self.ticks += 1;
                    let now = self.ticks;
                    if let Some(t) = self.thread_mut(tid) {
                        if let ThreadState::Sleeping(until) = t.state {
                            if now >= until {
                                t.state = ThreadState::Runnable;
                            }
                        }
                    }
                }
                ThreadState::Runnable => {}
            }
            if steps >= limit {
                self.reap(tid);
                return Err(CallError::StepLimit);
            }
        }
    }

    fn reap(&mut self, tid: u64) {
        if let Some(t) = self.thread(tid) {
            self.free_stacks.push(t.stack);
        }
        self.threads.retain(|t| t.tid != tid);
        for c in &mut self.cpus {
            c.runq.retain(|&t| t != tid);
            if c.current == Some(tid) {
                c.current = None;
            }
        }
        if self.fault_parker == Some(tid) {
            self.fault_parker = None;
        }
    }

    /// Removes exited/oopsed threads and recycles their stacks.
    pub fn reap_dead(&mut self) -> usize {
        let dead: Vec<u64> = self
            .threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Exited(_) | ThreadState::Oopsed))
            .map(|t| t.tid)
            .collect();
        for tid in &dead {
            self.reap(*tid);
        }
        dead.len()
    }

    /// `stop_machine`: captures all CPUs and runs `f` with the machine
    /// stopped (paper §5.2). At N ≥ 2 it first performs the barrier
    /// rendezvous (every vCPU's current thread runs up to one more
    /// quantum — "finish what you're doing and park in the stop
    /// handler"). Returns `f`'s result and records the pause, which
    /// [`Kernel::last_stop_machine`] exposes for the evaluation's "about
    /// 0.7 ms" measurement.
    ///
    /// Fails with [`StopMachineError::BarrierTimeout`] when an armed
    /// `barrier-stall` fault makes a vCPU miss the rendezvous; the
    /// machine is released untouched (`f` never runs, no text written).
    pub fn stop_machine<R>(
        &mut self,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> Result<R, StopMachineError> {
        let start = Instant::now();
        let steps_before = self.steps;
        // Capture. On a uniprocessor no other thread can run while `f`
        // executes; we model the per-CPU check-in cost by spinning
        // briefly per vCPU, as the real stop_machine busy-waits for
        // every CPU.
        for _ in 0..self.smp.cpus {
            std::hint::black_box(0u64);
        }
        // Rendezvous (N ≥ 2): every vCPU finishes its current quantum
        // before parking in the stop handler. These instructions are
        // the simulated capture latency — and they genuinely move
        // threads in and out of patch targets between retry attempts.
        if self.smp.cpus > 1 {
            let ncpus = self.cpus.len();
            let lead = (self.sched_next() % ncpus as u64) as usize;
            for i in 0..ncpus {
                let cpu = (lead + i) % ncpus;
                if let Some(tid) = self.pick_next(cpu) {
                    let used = self.run_slice(tid, self.smp.quantum);
                    self.cpus[cpu].cycles += used;
                }
            }
        }
        if let Some(cpu) = self.faults.barrier_stall(self.smp.cpus) {
            // The stalled vCPU never checked in: release the machine
            // without running `f`. The pause still counted.
            self.last_stop_machine = Some(start.elapsed());
            self.last_stop_machine_steps = self.steps - steps_before;
            return Err(StopMachineError::BarrierTimeout { cpu });
        }
        let r = f(self);
        self.last_stop_machine = Some(start.elapsed());
        self.last_stop_machine_steps = self.steps - steps_before;
        self.stop_machine_count += 1;
        Ok(r)
    }

    /// Physically realizes an armed stack-busy fault at N ≥ 2: parks a
    /// real vCPU thread at `addr` (the entry of the patch target), so
    /// the §5.2 stack check finds a genuine instruction pointer inside
    /// the function — no synthetic verdict involved. The parked thread
    /// sleeps forever and is reaped when the fault's windows are
    /// exhausted. Returns the parked tid while the fault is live.
    pub fn park_fault_vcpu(&mut self, addr: u64) -> Option<u64> {
        if self.faults.stack_busy_pending() == 0 {
            // Windows exhausted: release the parked vCPU so the next
            // capture attempt finds the machine quiescent.
            if let Some(tid) = self.fault_parker.take() {
                self.reap(tid);
            }
            return None;
        }
        if let Some(tid) = self.fault_parker {
            return Some(tid);
        }
        let tid = self.spawn_at(addr, &[], "vcpu-parked").ok()?;
        if let Some(t) = self.thread_mut(tid) {
            // Parked: ip stays at the function entry, never scheduled.
            t.state = ThreadState::Sleeping(u64::MAX);
        }
        self.fault_parker = Some(tid);
        Some(tid)
    }

    /// The frame-pointer backtrace of a thread: current `ip`, then every
    /// return address on its kernel stack. This is the information the
    /// paper's safety check consumes (§5.2): no thread may have its
    /// instruction pointer *or any return address* inside a function being
    /// replaced.
    pub fn thread_backtrace(&self, t: &Thread) -> Vec<u64> {
        let mut out = vec![t.ip];
        let (low, high) = t.stack;
        let mut fp = t.fp();
        let mut hops = 0;
        while fp >= low && fp + 16 <= high && hops < 128 {
            // Frame layout: [fp] = saved fp, [fp+8] = return address.
            let Ok(ret) = self.mem.load_u64(fp + 8) else {
                break;
            };
            if ret == RETURN_SENTINEL || ret == 0 {
                break;
            }
            out.push(ret);
            let Ok(next) = self.mem.load_u64(fp) else {
                break;
            };
            if next <= fp {
                break;
            }
            fp = next;
            hops += 1;
        }
        out
    }

    /// Backtraces of every live (runnable or sleeping) thread.
    pub fn all_backtraces(&self) -> Vec<(u64, Vec<u64>)> {
        self.threads
            .iter()
            .filter(|t| matches!(t.state, ThreadState::Runnable | ThreadState::Sleeping(_)))
            .map(|t| (t.tid, self.thread_backtrace(t)))
            .collect()
    }

    /// Loads a module object at run time. Its symbols are added to
    /// kallsyms with *local* visibility — modules do not export symbols
    /// unless explicitly (Linux `EXPORT_SYMBOL` semantics).
    pub fn insmod(
        &mut self,
        obj: &Object,
        defer_unresolved: bool,
    ) -> Result<LoadedModule, LinkError> {
        self.insmod_with(obj, defer_unresolved, true)
    }

    /// Like [`Kernel::insmod`], optionally skipping kallsyms registration
    /// entirely (Ksplice helper modules stay invisible so their pre code
    /// is never mistaken for run code during matching).
    pub fn insmod_with(
        &mut self,
        obj: &Object,
        defer_unresolved: bool,
        register_symbols: bool,
    ) -> Result<LoadedModule, LinkError> {
        if self.faults.module_load_fails(&obj.name) {
            // Simulated vmalloc exhaustion mid-load (fault injection).
            return Err(LinkError::OutOfMemory {
                section: format!("{}:fault-injected", obj.name),
            });
        }
        let m = load_module(
            &mut self.mem,
            &self.syms,
            obj,
            &|n| native_addr(n),
            defer_unresolved,
        )?;
        if register_symbols {
            for (name, addr, _global, is_func, size) in &m.symbols {
                self.syms.insert(crate::kallsyms::KSym {
                    name: name.clone(),
                    addr: *addr,
                    size: *size,
                    global: false,
                    is_func: *is_func,
                    unit: m.name.clone(),
                });
            }
        }
        self.modules.push(Arc::new(m.clone()));
        Ok(m)
    }

    /// Unloads a module: unmaps its regions, drops its kallsyms entries,
    /// and forgets it. Returns false if no such module is loaded.
    pub fn rmmod(&mut self, name: &str) -> bool {
        let had = self.modules.iter().any(|m| m.name == name);
        if !had {
            return false;
        }
        self.mem.unmap_prefix(&format!("{name}:"));
        self.syms.remove_unit(name);
        self.modules.retain(|m| m.name != name);
        true
    }

    /// Arms one fault (see [`Fault`] for the sites). Countable faults
    /// (stack-busy windows, module-load failures) accumulate; text
    /// corruption happens immediately — one byte of mapped kernel text
    /// is inverted (at `addr` if given, else a seeded pick) and the
    /// flipped address is recorded in [`FaultPlan::fired`]. Returns the
    /// corrupted address for `CorruptText`, `None` otherwise; `Err` only
    /// when a text corruption finds no byte to flip.
    pub fn arm_fault(&mut self, fault: Fault) -> Result<Option<u64>, String> {
        match fault {
            Fault::StackBusy { windows } => {
                self.faults.arm_stack_busy(windows);
                Ok(None)
            }
            Fault::ModuleLoad { count } => {
                self.faults.arm_module_load(count);
                Ok(None)
            }
            Fault::StepJitter { max_steps } => {
                self.faults.arm_step_jitter(max_steps);
                Ok(None)
            }
            Fault::ProbeFail { count } => {
                self.faults.arm_probe_fail(count);
                Ok(None)
            }
            Fault::BarrierStall { count } => {
                self.faults.arm_barrier_stall(count);
                Ok(None)
            }
            Fault::CorruptText { addr } => {
                let addr = match addr {
                    Some(a) => a,
                    None => {
                        let exec: Vec<(u64, u64)> = self
                            .mem
                            .regions()
                            .iter()
                            .filter(|r| r.perms.exec)
                            .map(|r| (r.start, r.size))
                            .collect();
                        self.faults
                            .pick_text_byte(&exec)
                            .ok_or_else(|| "no executable text to corrupt".to_string())?
                    }
                };
                let byte = self
                    .mem
                    .peek(addr, 1)
                    .map_err(|e| format!("corrupt-text at {addr:#x}: {e}"))?[0];
                self.mem
                    .poke(addr, &[!byte])
                    .map_err(|e| format!("corrupt-text at {addr:#x}: {e}"))?;
                self.faults.record("corrupt-text", format!("{addr:#x}"));
                Ok(Some(addr))
            }
        }
    }

    /// kmalloc: first-fit from the free list.
    pub(crate) fn kmalloc(&mut self, size: u64) -> u64 {
        let size = size.max(8).div_ceil(16) * 16;
        for i in 0..self.free_list.len() {
            let (addr, avail) = self.free_list[i];
            if avail >= size {
                if avail == size {
                    self.free_list.remove(i);
                } else {
                    self.free_list[i] = (addr + size, avail - size);
                }
                // Zero the block (kzalloc semantics keep tests simple).
                let zeros = vec![0u8; size as usize];
                let _ = self.mem.poke(addr, &zeros);
                return addr;
            }
        }
        0 // allocation failure, like kmalloc returning NULL
    }

    /// kfree: returns a block to the free list (no coalescing).
    pub(crate) fn kfree(&mut self, addr: u64, size: u64) {
        if addr != 0 {
            let size = size.max(8).div_ceil(16) * 16;
            self.free_list.push((addr, size));
        }
    }
}

/// An immutable copy of a kernel, taken by [`Kernel::snapshot`]: boot
/// an image once, then [`KernelSnapshot::fork`] it per fleet node or
/// fuzz subject instead of linking and loading the image again.
///
/// A fork is observably identical to the kernel the snapshot was taken
/// from — same bytes, regions, text generations, symbols, modules, free
/// lists, threads, clocks, PRNG and scheduler state — so forking a
/// never-run kernel is the same as a fresh [`Kernel::boot_image`] of its
/// image. Only the icache starts empty: decoded blocks are a cache, and
/// a fork that runs little would pay more to copy them than to decode
/// what it needs.
///
/// Forks are independent of the snapshot and of each other. The
/// snapshot is `Send + Sync`, so worker threads fork one shared copy.
pub struct KernelSnapshot {
    frozen: Kernel,
}

impl KernelSnapshot {
    /// A new, independent kernel in the snapshot's state. Its memory is
    /// a fresh arena holding copies of the pages the snapshotted kernel
    /// ever wrote; the boot-time symbol table is shared, not copied.
    pub fn fork(&self) -> Kernel {
        self.frozen.copy()
    }
}

/// Errors from booting.
#[derive(Debug)]
pub enum BootError {
    /// A source unit failed to compile.
    Compile(ksplice_lang::CompileError),
    /// Linking the boot image failed.
    Link(LinkError),
    /// The arena could not hold the image.
    NoMemory,
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Compile(e) => write!(f, "compile: {e}"),
            BootError::Link(e) => write!(f, "link: {e}"),
            BootError::NoMemory => write!(f, "out of memory during boot"),
        }
    }
}

impl std::error::Error for BootError {}

/// Errors from spawning a thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// No unique exported symbol with the given name.
    NoEntry(String),
    /// No room for a thread stack.
    NoMemory,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::NoEntry(n) => write!(f, "no unique exported symbol `{n}`"),
            SpawnError::NoMemory => write!(f, "out of memory for thread stack"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// Errors from a synchronous call.
#[derive(Debug)]
pub enum CallError {
    /// No unique exported symbol with the given name.
    NoEntry(String),
    /// The call's thread could not be spawned.
    Spawn(SpawnError),
    /// The call oopsed.
    Oops(Box<Oops>),
    /// The call ran past its step budget.
    StepLimit,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::NoEntry(n) => write!(f, "no unique exported symbol `{n}`"),
            CallError::Spawn(e) => write!(f, "spawn failed: {e}"),
            CallError::Oops(o) => write!(f, "kernel oops at {:#x}: {}", o.ip, o.reason),
            CallError::StepLimit => write!(f, "call exceeded step limit"),
        }
    }
}

impl std::error::Error for CallError {}
