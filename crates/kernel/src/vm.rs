//! The K64 virtual machine: instruction execution for kernel threads.
//!
//! Dispatch is *decode-cached*: executable text is predecoded into
//! basic blocks (ending at any control transfer) held in a side table
//! keyed by entry address — the VM's icache. Within a block, execution
//! is sequential by construction, so the hot loop runs decoded
//! instructions straight out of the cache and only consults memory
//! again at block boundaries. Any write into an executable region
//! advances that region's generation counter ([`crate::mem::Memory`]),
//! and the dispatcher sweeps stale blocks before the next dispatch —
//! the moral equivalent of `flush_icache_range` after a kernel text
//! patch. Step accounting and the PC sampler remain per-instruction
//! exact: every architectural effect, oops message, profiler tick and
//! step count is byte-identical to the historical decode-per-step
//! interpreter.
//!
//! Forks of one [`crate::KernelSnapshot`] also share a second level:
//! [`SharedBlocks`], the blocks any fork decoded from text it has not
//! changed since the fork. A private miss takes the block from there
//! or decodes it and publishes it; either way the block then lands in
//! the fork's own icache, so everything above stays per-kernel.

use std::sync::{Arc, PoisonError, RwLock};

use ksplice_asm::{decode, predecode_block, BinOp, Instr};

use crate::kernel::{Kernel, Oops, ThreadState};
use crate::mem::Memory;
use crate::native::{native_from_addr, NativeOutcome, NATIVE_BASE, RETURN_SENTINEL};

/// Result of a single instruction step.
enum Step {
    /// Keep running.
    Continue,
    /// The thread gave up its slice voluntarily.
    Yielded,
    /// The thread went to sleep or exited or died.
    Stopped,
}

/// Longest straight-line run predecoded into one block. Purely a
/// memory bound — a longer run simply continues in the next block.
const MAX_BLOCK_INSTRS: usize = 1024;

/// A block's decoded instructions with their encoded lengths. Shared so
/// the dispatcher can hold a block across steps while the caches and
/// the kernel stay mutable.
pub(crate) type Code = Arc<[(Instr, u8)]>;

/// One predecoded basic block in the VM's icache.
pub(crate) struct CachedBlock {
    /// The block's instructions.
    pub(crate) code: Code,
    /// Start address of the executable region the block decodes from.
    pub(crate) region_start: u64,
    /// That region's write generation when the block was decoded.
    pub(crate) gen: u64,
}

/// Counters for the decode-cached block dispatcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Block dispatches served from the cache without decoding.
    pub block_hits: u64,
    /// Basic blocks decoded and inserted into the cache.
    pub blocks_decoded: u64,
    /// Basic blocks a fork took from the table its
    /// [`KernelSnapshot`](crate::KernelSnapshot) shares instead of
    /// decoding them. With forks on several workers this
    /// and `blocks_decoded` depend on which worker decoded a block
    /// first, so neither belongs in a deterministic output.
    pub blocks_shared: u64,
    /// Icache flush sweeps (lazy after a text write, or explicit from
    /// the patching machinery inside a stop_machine window).
    pub icache_flushes: u64,
    /// Cached blocks evicted by those sweeps.
    pub blocks_evicted: u64,
}

/// The dispatcher's position inside a cached block: the block and the
/// index of the next instruction to execute.
type Cursor = Option<(Code, usize)>;

/// Multiply-mix hasher for address-keyed maps. Block-cache keys are
/// instruction addresses — already well spread — and the lookup sits on
/// the dispatch fast path, where SipHash's setup cost dominates.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` keyed by address, using [`AddrHasher`].
pub(crate) type AddrMap<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<AddrHasher>>;

/// The decoded blocks every fork of one snapshot shares, keyed by entry
/// address: an append-only table that forks fill as they run.
///
/// A block may come from or go to the table only while its region is
/// the snapshot's own: the same bounds at the same write generation.
/// Generations only grow and the bump allocator never hands a start
/// out again (a zero-size region shares its start with the next one,
/// hence the bounds), so such a region still holds the snapshot's
/// bytes. Regions a fork wrote, unmapped or re-permissioned since the
/// fork, and regions it mapped itself, fail that test and decode
/// privately. The table therefore holds at most one block per
/// instruction address of the snapshot's text.
pub(crate) struct SharedBlocks {
    /// The snapshot's executable regions: start → (end, generation).
    regions: AddrMap<(u64, u64)>,
    /// Blocks by entry address. An entry is never replaced or removed,
    /// so a lock a panicking holder poisoned still guards a whole map.
    blocks: RwLock<AddrMap<Code>>,
}

impl SharedBlocks {
    /// An empty table for forks of a kernel whose memory is `mem`.
    pub(crate) fn new(mem: &Memory) -> SharedBlocks {
        let regions = mem
            .regions()
            .iter()
            .filter(|r| r.perms.exec)
            .filter_map(|r| Some((r.start, (r.start + r.size, mem.region_generation(r.start)?))))
            .collect();
        SharedBlocks {
            regions,
            blocks: RwLock::default(),
        }
    }

    /// True when the region `start..end` at generation `gen` holds the
    /// snapshot's bytes.
    fn holds(&self, start: u64, end: u64, gen: u64) -> bool {
        self.regions.get(&start) == Some(&(end, gen))
    }
}

impl Kernel {
    /// Sweeps the decoded-block cache, evicting every block whose
    /// region's write generation moved (or whose region vanished)
    /// since the block was decoded — the `flush_icache_range`
    /// analogue. The patching machinery calls this right after
    /// writing trampolines inside the stop_machine window; the VM
    /// also sweeps lazily before dispatching after any text write.
    /// Returns the number of blocks evicted.
    pub fn flush_icache(&mut self) -> usize {
        let before = self.block_cache.len();
        let mem = &self.mem;
        self.block_cache
            .retain(|_, b| mem.region_generation(b.region_start) == Some(b.gen));
        let evicted = before - self.block_cache.len();
        self.icache_clock = self.mem.text_generation();
        self.vm_stats.icache_flushes += 1;
        self.vm_stats.blocks_evicted += evicted as u64;
        evicted
    }

    /// Runs thread `tid` for at most `max_steps` instructions; returns the
    /// number executed.
    pub(crate) fn run_slice(&mut self, tid: u64, max_steps: u64) -> u64 {
        if self.mem.text_generation() != self.icache_clock {
            self.flush_icache();
        }
        // Threads are only ever appended, so the index stays valid for
        // the whole slice even if the thread spawns others.
        let ti = self.threads.iter().position(|t| t.tid == tid);
        let mut cursor: Cursor = None;
        let mut used = 0;
        while used < max_steps {
            let outcome = match ti {
                // No such thread: the historical interpreter burned one
                // step discovering that, and so do we.
                None => Step::Stopped,
                Some(ti) => self.step_cached(ti, tid, &mut cursor),
            };
            used += 1;
            // PC sampler: one branch when disarmed; on the Nth step it
            // records the running thread's stack (see `profiler`).
            if self.profiler.as_mut().is_some_and(|p| p.tick()) {
                self.record_sample(tid, self.steps + used);
            }
            match outcome {
                Step::Continue => {}
                Step::Yielded | Step::Stopped => break,
            }
            // A store into writable+executable memory (or a native that
            // poked text) invalidates decoded blocks immediately —
            // including the one currently executing.
            if self.mem.text_generation() != self.icache_clock {
                self.flush_icache();
                cursor = None;
            }
        }
        self.steps += used;
        used
    }

    /// Executes one instruction through the block cache. Falls back to
    /// [`Kernel::step`] for everything that is not ordinary mapped text
    /// (dead threads, the return sentinel, native calls, unfetchable or
    /// undecodable addresses), which words every fault message and exit.
    fn step_cached(&mut self, ti: usize, tid: u64, cursor: &mut Cursor) -> Step {
        if let Some((code, idx)) = cursor {
            let (instr, _) = code[*idx];
            let last = *idx + 1 == code.len();
            let out = self.exec_instr(ti, tid, instr);
            if last || !matches!(out, Step::Continue) {
                *cursor = None;
            } else {
                *idx += 1;
            }
            return out;
        }
        let t = &self.threads[ti];
        if !matches!(t.state, ThreadState::Runnable)
            || t.ip == RETURN_SENTINEL
            || t.ip >= NATIVE_BASE
        {
            return self.step(tid);
        }
        let ip = t.ip;
        match self.block_at(ip) {
            Some(code) => {
                let (instr, _) = code[0];
                let out = self.exec_instr(ti, tid, instr);
                if code.len() > 1 && matches!(out, Step::Continue) {
                    *cursor = Some((code, 1));
                }
                out
            }
            None => self.step(tid),
        }
    }

    /// The cached block starting at `ip`. On a miss it comes from the
    /// snapshot's [`SharedBlocks`] when the region still holds the
    /// snapshot's bytes, else it is decoded (and published there if
    /// it could have come from there); either way it is cached. `None`
    /// when `ip` is not fetchable/decodable text — the caller falls
    /// back to [`Kernel::step`] for the exact oops.
    fn block_at(&mut self, ip: u64) -> Option<Code> {
        if let Some(b) = self.block_cache.get(&ip) {
            self.vm_stats.block_hits += 1;
            return Some(Arc::clone(&b.code));
        }
        let (region_start, region_end) = {
            let r = self.mem.region_at(ip, 1)?;
            if !r.perms.exec {
                return None;
            }
            (r.start, r.start + r.size)
        };
        let gen = self.mem.region_generation(region_start)?;
        let shared = self
            .shared_blocks
            .as_deref()
            .filter(|s| s.holds(region_start, region_end, gen));
        let published = shared.and_then(|s| {
            let blocks = s.blocks.read().unwrap_or_else(PoisonError::into_inner);
            blocks.get(&ip).cloned()
        });
        let code = match published {
            Some(code) => {
                self.vm_stats.blocks_shared += 1;
                code
            }
            None => {
                let bytes = self.mem.fetch(ip, region_end - ip).ok()?;
                let (decoded, _) = predecode_block(bytes, MAX_BLOCK_INSTRS);
                if decoded.is_empty() {
                    return None;
                }
                let code: Code = decoded.into();
                self.vm_stats.blocks_decoded += 1;
                if let Some(s) = shared {
                    let mut blocks = s.blocks.write().unwrap_or_else(PoisonError::into_inner);
                    blocks.entry(ip).or_insert_with(|| Arc::clone(&code));
                }
                code
            }
        };
        self.block_cache.insert(
            ip,
            CachedBlock {
                code: Arc::clone(&code),
                region_start,
                gen,
            },
        );
        Some(code)
    }

    fn oops(&mut self, tid: u64, reason: String) -> Step {
        let (ip, backtrace) = {
            let t = self.thread(tid).expect("stepping a live thread");
            (t.ip, self.thread_backtrace(t))
        };
        let sym = self
            .syms
            .lookup_addr(ip)
            .map(|s| format!(" in {}", s.name))
            .unwrap_or_default();
        self.klog.push(format!("Oops: {reason}{sym} [tid {tid}]"));
        self.oopses.push(Oops {
            tid,
            ip,
            reason,
            backtrace,
        });
        if let Some(t) = self.thread_mut(tid) {
            t.state = ThreadState::Oopsed;
        }
        Step::Stopped
    }

    /// Executes one instruction (or native call) for `tid`, fetching
    /// and decoding it from memory: the return sentinel, native calls
    /// and faults. Ordinary instructions go to the same
    /// [`Kernel::exec_instr`] the block cursor uses.
    fn step(&mut self, tid: u64) -> Step {
        let Some(ti) = self.threads.iter().position(|t| t.tid == tid) else {
            return Step::Stopped;
        };
        let (ip, regs) = {
            let t = &self.threads[ti];
            if !matches!(t.state, ThreadState::Runnable) {
                return Step::Stopped;
            }
            (t.ip, t.regs)
        };

        // Returning to the sentinel ends the thread.
        if ip == RETURN_SENTINEL {
            let code = regs[0];
            let t = &mut self.threads[ti];
            t.state = ThreadState::Exited(code);
            return Step::Stopped;
        }

        // Native-range dispatch.
        if ip >= NATIVE_BASE {
            let Some(f) = native_from_addr(ip) else {
                return self.oops(tid, format!("jump to bad native address {ip:#x}"));
            };
            let args = [regs[1], regs[2], regs[3], regs[4], regs[5], regs[6]];
            let outcome = self.dispatch_native(tid, f, args);
            // Simulate `ret`: pop the return address.
            let sp = regs[15];
            let ret = match self.mem.load_u64(sp) {
                Ok(v) => v,
                Err(e) => return self.oops(tid, format!("native return: {e}")),
            };
            let t = self.thread_mut(tid).expect("live thread");
            t.regs[15] = sp + 8;
            t.ip = ret;
            t.cycles += 1;
            match outcome {
                NativeOutcome::Return(v) => {
                    t.regs[0] = v;
                    return Step::Continue;
                }
                NativeOutcome::Sleep(until) => {
                    t.regs[0] = 0;
                    t.state = ThreadState::Sleeping(until);
                    return Step::Stopped;
                }
                NativeOutcome::Yield => {
                    t.regs[0] = 0;
                    return Step::Yielded;
                }
                NativeOutcome::Fault(msg) => return self.oops(tid, msg),
            }
        }

        // Ordinary instruction fetch + decode.
        let instr = {
            let bytes = match self.mem.fetch(ip, 10) {
                Ok(b) => b,
                Err(e) => return self.oops(tid, e.to_string()),
            };
            match decode(bytes) {
                Ok((i, _)) => i,
                Err(e) => return self.oops(tid, format!("invalid opcode: {e}")),
            }
        };
        self.exec_instr(ti, tid, instr)
    }

    /// Executes one already-decoded ordinary instruction for the
    /// runnable thread at index `ti` (tid `tid`). The architectural
    /// core shared by the cached dispatcher and [`Kernel::step`].
    ///
    /// Effects are applied *fault-first*: every instruction has at most
    /// one faulting operation (a load, a store, or a divide check), and
    /// it runs before any register or flag is written. An oops
    /// therefore leaves the thread exactly as the fetch found it — the
    /// same guarantee the historical interpreter bought by staging a
    /// full register-file copy, without copying 128 bytes twice per
    /// instruction.
    fn exec_instr(&mut self, ti: usize, tid: u64, instr: Instr) -> Step {
        let t = &mut self.threads[ti];
        let next = t.ip + instr.len() as u64;

        // Helper over the thread's registers (borrowed through `t`, so
        // `self.mem` stays independently borrowable).
        macro_rules! reg {
            ($r:expr) => {
                t.regs[$r.num() as usize]
            };
        }
        // Commits the instruction: ip (fall-through or explicit) and
        // the cycle count, then returns Continue.
        macro_rules! retire {
            () => {{
                t.ip = next;
                t.cycles += 1;
                return Step::Continue;
            }};
            ($ip:expr) => {{
                t.ip = $ip;
                t.cycles += 1;
                return Step::Continue;
            }};
        }

        let msg: String = match instr {
            Instr::Hlt => {
                t.state = ThreadState::Exited(t.regs[0]);
                return Step::Stopped;
            }
            Instr::Nop1 | Instr::NopN(_) => retire!(),
            Instr::MovRR(d, s) => {
                reg!(d) = reg!(s);
                retire!()
            }
            Instr::MovRI32(d, v) => {
                reg!(d) = v as i64 as u64;
                retire!()
            }
            Instr::MovRI64(d, v) => {
                reg!(d) = v;
                retire!()
            }
            Instr::Ld(d, b, disp) => {
                let addr = reg!(b).wrapping_add(disp as i64 as u64);
                match self.mem.load_u64(addr) {
                    Ok(v) => {
                        reg!(d) = v;
                        retire!()
                    }
                    Err(e) => e.to_string(),
                }
            }
            Instr::St(b, s, disp) => {
                let addr = reg!(b).wrapping_add(disp as i64 as u64);
                match self.mem.store(addr, &reg!(s).to_le_bytes()) {
                    Ok(()) => retire!(),
                    Err(e) => e.to_string(),
                }
            }
            Instr::Ld8(d, b, disp) => {
                let addr = reg!(b).wrapping_add(disp as i64 as u64);
                match self.mem.load(addr, 1) {
                    Ok(v) => {
                        let v = v[0] as u64;
                        reg!(d) = v;
                        retire!()
                    }
                    Err(e) => e.to_string(),
                }
            }
            Instr::St8(b, s, disp) => {
                let addr = reg!(b).wrapping_add(disp as i64 as u64);
                match self.mem.store(addr, &[reg!(s) as u8]) {
                    Ok(()) => retire!(),
                    Err(e) => e.to_string(),
                }
            }
            Instr::Lea(d, b, disp) => {
                reg!(d) = reg!(b).wrapping_add(disp as i64 as u64);
                retire!()
            }
            Instr::Bin(op, d, s) => {
                let a = reg!(d) as i64;
                let b = reg!(s) as i64;
                let v = match op {
                    BinOp::Add => Some(a.wrapping_add(b)),
                    BinOp::Sub => Some(a.wrapping_sub(b)),
                    BinOp::Mul => Some(a.wrapping_mul(b)),
                    BinOp::Div => {
                        if b == 0 {
                            None
                        } else {
                            Some(a.wrapping_div(b))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            None
                        } else {
                            Some(a.wrapping_rem(b))
                        }
                    }
                    BinOp::And => Some(a & b),
                    BinOp::Or => Some(a | b),
                    BinOp::Xor => Some(a ^ b),
                    BinOp::Shl => Some(a.wrapping_shl(b as u32 & 63)),
                    BinOp::Shr => Some(((a as u64).wrapping_shr(b as u32 & 63)) as i64),
                };
                match v {
                    Some(v) => {
                        reg!(d) = v as u64;
                        retire!()
                    }
                    None => "divide error".to_string(),
                }
            }
            Instr::AddI(d, imm) => {
                reg!(d) = reg!(d).wrapping_add(imm as i64 as u64);
                retire!()
            }
            Instr::Neg(d) => {
                reg!(d) = (reg!(d) as i64).wrapping_neg() as u64;
                retire!()
            }
            Instr::Not(d) => {
                reg!(d) = !reg!(d);
                retire!()
            }
            Instr::Cmp(a, b) => {
                let (x, y) = (reg!(a) as i64, reg!(b) as i64);
                t.zf = x == y;
                t.lf = x < y;
                retire!()
            }
            Instr::CmpI(a, imm) => {
                let (x, y) = (reg!(a) as i64, imm as i64);
                t.zf = x == y;
                t.lf = x < y;
                retire!()
            }
            Instr::Jmp8(rel) => retire!(next.wrapping_add(rel as i64 as u64)),
            Instr::Jmp32(rel) => retire!(next.wrapping_add(rel as i64 as u64)),
            Instr::Jcc8(c, rel) => {
                if c.eval(t.zf, t.lf) {
                    retire!(next.wrapping_add(rel as i64 as u64))
                }
                retire!()
            }
            Instr::Jcc32(c, rel) => {
                if c.eval(t.zf, t.lf) {
                    retire!(next.wrapping_add(rel as i64 as u64))
                }
                retire!()
            }
            Instr::Call32(rel) => {
                let sp = t.regs[15].wrapping_sub(8);
                match self.mem.store(sp, &next.to_le_bytes()) {
                    Ok(()) => {
                        t.regs[15] = sp;
                        retire!(next.wrapping_add(rel as i64 as u64))
                    }
                    Err(e) => e.to_string(),
                }
            }
            Instr::CallR(r) => {
                let sp = t.regs[15].wrapping_sub(8);
                match self.mem.store(sp, &next.to_le_bytes()) {
                    Ok(()) => {
                        let target = reg!(r);
                        t.regs[15] = sp;
                        retire!(target)
                    }
                    Err(e) => e.to_string(),
                }
            }
            Instr::Ret => {
                let sp = t.regs[15];
                match self.mem.load_u64(sp) {
                    Ok(v) => {
                        t.regs[15] = sp + 8;
                        retire!(v)
                    }
                    Err(e) => format!("ret: {e}"),
                }
            }
            Instr::Push(r) => {
                let sp = t.regs[15].wrapping_sub(8);
                match self.mem.store(sp, &reg!(r).to_le_bytes()) {
                    Ok(()) => {
                        t.regs[15] = sp;
                        retire!()
                    }
                    Err(e) => e.to_string(),
                }
            }
            Instr::Pop(r) => {
                let sp = t.regs[15];
                match self.mem.load_u64(sp) {
                    Ok(v) => {
                        reg!(r) = v;
                        t.regs[15] = sp + 8;
                        retire!()
                    }
                    Err(e) => format!("pop: {e}"),
                }
            }
            Instr::Int(0x80) => {
                // System call: an in-kernel call to `do_syscall`.
                match self.syscall_entry {
                    Some(entry) => {
                        let sp = t.regs[15].wrapping_sub(8);
                        match self.mem.store(sp, &next.to_le_bytes()) {
                            Ok(()) => {
                                t.regs[15] = sp;
                                retire!(entry)
                            }
                            Err(e) => e.to_string(),
                        }
                    }
                    None => "int 0x80 with no do_syscall".to_string(),
                }
            }
            Instr::Int(v) => format!("unexpected interrupt {v:#04x}"),
        };
        self.oops(tid, msg)
    }
}
