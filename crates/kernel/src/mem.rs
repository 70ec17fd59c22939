//! The simulated physical memory of the kernel.
//!
//! A single flat arena starting at [`KBASE`], carved into named regions
//! with page-less but honest W^X accounting: ordinary stores through the
//! VM fault on read-only or executable regions, and instruction fetch
//! faults outside executable ones. Ksplice's trampoline writes go through
//! the privileged [`Memory::poke`] interface, the analogue of the kernel
//! briefly lifting write protection on its own text.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use ksplice_lang::{fnv1a, FNV_OFFSET};

/// Base virtual address of kernel memory. Chosen to echo the paper's
/// worked example addresses (`0xf0000000`, §4.3 Figure 2).
pub const KBASE: u64 = 0xf000_0000;

/// Total size of the simulated arena (64 MiB).
pub const MEM_SIZE: u64 = 64 * 1024 * 1024;

/// Memory access permissions of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub exec: bool,
}

impl Perms {
    /// Read + execute (kernel text).
    pub const TEXT: Perms = Perms {
        read: true,
        write: false,
        exec: true,
    };
    /// Read + write (data, stacks, heap).
    pub const DATA: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read only (rodata).
    pub const RO: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
}

/// A named allocated region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region name, `module:section` for loaded code.
    pub name: String,
    /// First address.
    pub start: u64,
    /// Length in bytes.
    pub size: u64,
    /// Access permissions.
    pub perms: Perms,
}

impl Region {
    /// True if `addr..addr+len` lies wholly inside the region.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.start
            && len <= self.size
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.start + self.size)
    }
}

/// A memory fault (the raw material of a kernel oops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Access to an address outside any region.
    Unmapped {
        /// Faulting address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// Write to a region without write permission.
    ReadOnly {
        /// Faulting address.
        addr: u64,
    },
    /// Instruction fetch from a non-executable region.
    NotExecutable {
        /// Faulting address.
        addr: u64,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr, len } => {
                write!(
                    f,
                    "unable to handle kernel paging request at {addr:#x} (len {len})"
                )
            }
            MemFault::ReadOnly { addr } => write!(f, "write to read-only memory at {addr:#x}"),
            MemFault::NotExecutable { addr } => {
                write!(
                    f,
                    "instruction fetch from non-executable memory at {addr:#x}"
                )
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// Granule of the dirty-page map: [`Memory::fork`] copies whole pages.
const PAGE_SHIFT: u32 = 12;

/// Pages in the arena.
const PAGES: usize = (MEM_SIZE >> PAGE_SHIFT) as usize;

/// The kernel's memory arena.
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per page ever written by [`Memory::store`] or
    /// [`Memory::poke`]. Every other page is still zero, so a fork
    /// copies only these.
    dirty: Vec<u64>,
    regions: Vec<Region>,
    /// Bump cursor for region allocation.
    cursor: u64,
    /// Global text-write clock: advances whenever the bytes (or the
    /// mapping) of any executable region change. The VM compares this
    /// against its own icache clock to learn that a flush sweep is due.
    text_gen: u64,
    /// Per-executable-region write generations, keyed by region start
    /// (the bump cursor never reuses addresses, so starts are unique
    /// for the arena's lifetime). An entry disappears when its region
    /// is unmapped, which evicts every cached block decoded from it.
    gens: std::collections::HashMap<u64, u64>,
    /// Index of the region the last lookup landed in. Accesses cluster
    /// heavily (a thread's loads and stores hit its own stack), so this
    /// single-entry cache short-circuits the binary search most of the
    /// time. Correctness does not depend on it: a stale index either
    /// still contains the address (regions never overlap, so it is THE
    /// answer) or fails the containment check and we fall through.
    /// Atomic only so a kernel snapshot can be shared across threads;
    /// `Relaxed` suffices because the hint publishes no other data.
    last_hit: AtomicUsize,
    /// The last [`Memory::text_checksum`] value, valid until the text
    /// changes. Every change to executable bytes, to the set of
    /// executable regions or to their permissions empties it (see
    /// [`Memory::text_changed`]), so an unchanged text is hashed once.
    text_memo: OnceLock<u64>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// A fresh arena with no regions.
    pub fn new() -> Memory {
        Memory {
            bytes: vec![0u8; MEM_SIZE as usize],
            dirty: vec![0; PAGES / 64],
            regions: Vec::new(),
            cursor: KBASE,
            text_gen: 0,
            gens: std::collections::HashMap::new(),
            last_hit: AtomicUsize::new(usize::MAX),
            text_memo: OnceLock::new(),
        }
    }

    /// An independent copy of the arena: same bytes, regions, bump
    /// cursor, text generations and remembered text checksum. The copy
    /// starts from a fresh zeroed arena and copies only the pages ever
    /// written, so its cost is the written footprint, never the 64 MiB
    /// arena.
    pub(crate) fn fork(&self) -> Memory {
        let mut bytes = vec![0u8; MEM_SIZE as usize];
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let page = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let range = page << PAGE_SHIFT..(page + 1) << PAGE_SHIFT;
                bytes[range.clone()].copy_from_slice(&self.bytes[range]);
            }
        }
        Memory {
            bytes,
            dirty: self.dirty.clone(),
            regions: self.regions.clone(),
            cursor: self.cursor,
            text_gen: self.text_gen,
            gens: self.gens.clone(),
            last_hit: AtomicUsize::new(usize::MAX),
            text_memo: self.text_memo.clone(),
        }
    }

    /// Marks the pages under `i..i + len` (arena offsets) written.
    fn mark_dirty(&mut self, i: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in i >> PAGE_SHIFT..=(i + len - 1) >> PAGE_SHIFT {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// The global text-write clock. Any difference from a previously
    /// observed value means some executable region's bytes, or the set
    /// of executable regions itself, changed in between.
    pub fn text_generation(&self) -> u64 {
        self.text_gen
    }

    /// The write generation of the executable region starting at
    /// `start`, or `None` if no such region is mapped (any more).
    pub fn region_generation(&self, start: u64) -> Option<u64> {
        self.gens.get(&start).copied()
    }

    /// Records a write into the executable region starting at `start`.
    fn bump_text(&mut self, start: u64) {
        self.text_gen += 1;
        *self.gens.entry(start).or_insert(0) += 1;
        self.text_changed();
    }

    /// Forgets the remembered text checksum: the text just changed.
    /// Unlike [`Memory::bump_text`] this leaves the icache clock alone,
    /// so mapping a new executable region costs the VM no flush sweep.
    fn text_changed(&mut self) {
        self.text_memo.take();
    }

    /// Allocates a fresh region, returning its start address.
    ///
    /// Returns `None` when the arena is exhausted.
    pub fn alloc_region(&mut self, name: &str, size: u64, align: u64, perms: Perms) -> Option<u64> {
        let align = align.max(1);
        debug_assert!(align.is_power_of_two());
        let start = self.cursor.div_ceil(align) * align;
        let end = start.checked_add(size)?;
        if end > KBASE + MEM_SIZE {
            return None;
        }
        self.cursor = end;
        if perms.exec {
            self.gens.insert(start, 0);
            self.text_changed();
        }
        self.regions.push(Region {
            name: name.to_string(),
            start,
            size,
            perms,
        });
        Some(start)
    }

    /// The region containing `addr..addr+len`, if any.
    ///
    /// `regions` is always sorted by start address — the bump cursor only
    /// grows and `unmap_prefix` preserves order — so the candidate is the
    /// last region starting at or below `addr`, found by binary search.
    /// This is the single hottest lookup in the simulator (every VM
    /// fetch, load and store lands here).
    pub fn region_at(&self, addr: u64, len: u64) -> Option<&Region> {
        if let Some(r) = self.regions.get(self.last_hit.load(Ordering::Relaxed)) {
            if r.contains(addr, len) {
                return Some(r);
            }
        }
        let i = self.regions.partition_point(|r| r.start <= addr);
        let r = self.regions[..i].last()?;
        if r.contains(addr, len) {
            self.last_hit.store(i - 1, Ordering::Relaxed);
            Some(r)
        } else {
            None
        }
    }

    /// All regions, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Unmaps every region whose name starts with `prefix`, returning how
    /// many were removed. The backing bytes are not reclaimed (the arena
    /// is a bump allocator) but all further access faults — module
    /// unloading semantics.
    pub fn unmap_prefix(&mut self, prefix: &str) -> usize {
        let dead_text: Vec<u64> = self
            .regions
            .iter()
            .filter(|r| r.perms.exec && r.name.starts_with(prefix))
            .map(|r| r.start)
            .collect();
        let before = self.regions.len();
        self.regions.retain(|r| !r.name.starts_with(prefix));
        // Unloading module text retires its generation entry, so any
        // decoded block from it can never validate again.
        if !dead_text.is_empty() {
            for start in &dead_text {
                self.gens.remove(start);
            }
            self.text_gen += 1;
            self.text_changed();
        }
        before - self.regions.len()
    }

    /// Changes the permissions of the region starting exactly at `start`.
    pub fn set_region_perms(&mut self, start: u64, perms: Perms) -> bool {
        let mut toggled_exec = false;
        let mut found = false;
        for r in &mut self.regions {
            if r.start == start {
                toggled_exec = r.perms.exec || perms.exec;
                r.perms = perms;
                found = true;
                break;
            }
        }
        if found && toggled_exec {
            // Entering or leaving executability invalidates any cached
            // decoding of the region either way.
            self.bump_text(start);
        }
        found
    }

    fn index(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        match addr.checked_add(len) {
            Some(end) if addr >= KBASE && end <= KBASE + MEM_SIZE => Ok((addr - KBASE) as usize),
            _ => Err(MemFault::Unmapped { addr, len }),
        }
    }

    /// Checked load for the VM: requires a readable region.
    pub fn load(&self, addr: u64, len: u64) -> Result<&[u8], MemFault> {
        let region = self
            .region_at(addr, len)
            .ok_or(MemFault::Unmapped { addr, len })?;
        if !region.perms.read {
            return Err(MemFault::Unmapped { addr, len });
        }
        let i = self.index(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Checked store for the VM: requires a writable region.
    pub fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let len = data.len() as u64;
        let (exec, start) = {
            let region = self
                .region_at(addr, len)
                .ok_or(MemFault::Unmapped { addr, len })?;
            if !region.perms.write {
                return Err(MemFault::ReadOnly { addr });
            }
            (region.perms.exec, region.start)
        };
        let i = self.index(addr, len)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        self.mark_dirty(i, data.len());
        if exec {
            // Self-modifying code through a writable+executable region:
            // the icache analogue must notice.
            self.bump_text(start);
        }
        Ok(())
    }

    /// Instruction fetch: up to `len` bytes from an executable region.
    pub fn fetch(&self, addr: u64, len: u64) -> Result<&[u8], MemFault> {
        let region = self
            .region_at(addr, 1)
            .ok_or(MemFault::Unmapped { addr, len: 1 })?;
        if !region.perms.exec {
            return Err(MemFault::NotExecutable { addr });
        }
        // Clamp to the region end so partial fetches at region tails work.
        let avail = (region.start + region.size - addr).min(len);
        let i = self.index(addr, avail)?;
        Ok(&self.bytes[i..i + avail as usize])
    }

    /// Privileged read used by tooling (run-pre matching reads run text
    /// irrespective of permissions).
    pub fn peek(&self, addr: u64, len: u64) -> Result<&[u8], MemFault> {
        let i = self.index(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Privileged write used by the loader and by Ksplice's trampoline
    /// insertion; ignores write protection but still requires the range to
    /// be mapped.
    pub fn poke(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let len = data.len() as u64;
        let (exec, start) = {
            let region = self
                .region_at(addr, len)
                .ok_or(MemFault::Unmapped { addr, len })?;
            (region.perms.exec, region.start)
        };
        let i = self.index(addr, len)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        self.mark_dirty(i, data.len());
        if exec {
            // A trampoline (or fault-injected corruption) just landed
            // in text: advance the write generation so cached decoded
            // blocks covering this region are evicted.
            self.bump_text(start);
        }
        Ok(())
    }

    /// Convenience: load a little-endian u64 (VM-checked).
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemFault> {
        Ok(u64::from_le_bytes(self.load(addr, 8)?.try_into().unwrap()))
    }

    /// Convenience: store a little-endian u64 (VM-checked).
    pub fn store_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.store(addr, &v.to_le_bytes())
    }

    /// FNV-1a checksum over every *mapped* region: name, bounds, perms
    /// and backing bytes. Two arenas with the same region table and the
    /// same bytes under it hash identically; bytes left behind by
    /// unmapped regions (the arena is a bump allocator) do not count.
    ///
    /// This is the "kernel memory image" the abandon path of
    /// `ksplice-apply` must restore exactly: a clean abort unloads every
    /// module it loaded and rolls back every byte it poked, so the
    /// checksum before the apply equals the checksum after the abort
    /// (provided no kernel thread ran in between and dirtied its own
    /// stack or data).
    pub fn image_checksum(&self) -> u64 {
        self.checksum_where(|_| true)
    }

    /// [`Memory::image_checksum`] restricted to executable regions — the
    /// kernel's *text*. Threads running between stop_machine attempts
    /// legitimately dirty data and stacks, but a clean abort must leave
    /// every byte of mapped text untouched: no half-written trampolines,
    /// no leftover module code. This is the checksum the apply/undo
    /// abort paths verify.
    ///
    /// The value is remembered until the text changes, so repeated
    /// checks of unchanged text (and of a fork's, which inherits the
    /// value) hash nothing.
    pub fn text_checksum(&self) -> u64 {
        *self
            .text_memo
            .get_or_init(|| self.checksum_where(|r| r.perms.exec))
    }

    fn checksum_where(&self, keep: impl Fn(&Region) -> bool) -> u64 {
        let mut h = FNV_OFFSET;
        for r in self.regions.iter().filter(|r| keep(r)) {
            let perms =
                u8::from(r.perms.read) | u8::from(r.perms.write) << 1 | u8::from(r.perms.exec) << 2;
            let lo = (r.start - KBASE) as usize;
            h = fnv1a(h, r.name.as_bytes());
            h = fnv1a(h, &r.start.to_le_bytes());
            h = fnv1a(h, &r.size.to_le_bytes());
            h = fnv1a(h, &[perms]);
            h = fnv1a(h, &self.bytes[lo..lo + r.size as usize]);
        }
        h
    }

    /// Reads a NUL-terminated string (privileged; capped at 4096 bytes).
    pub fn read_cstr(&self, addr: u64) -> Result<String, MemFault> {
        let mut out = Vec::new();
        for i in 0..4096u64 {
            let b = self.peek(addr + i, 1)?[0];
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut m = Memory::new();
        let a = m.alloc_region("data", 64, 16, Perms::DATA).unwrap();
        assert_eq!(a % 16, 0);
        m.store_u64(a, 0xdead_beef).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 0xdead_beef);
    }

    #[test]
    fn text_is_write_protected() {
        let mut m = Memory::new();
        let t = m.alloc_region("text", 64, 16, Perms::TEXT).unwrap();
        assert_eq!(m.store(t, &[0x90]), Err(MemFault::ReadOnly { addr: t }));
        // But poke (privileged) succeeds, like set_kernel_text_rw.
        m.poke(t, &[0x90]).unwrap();
        assert_eq!(m.peek(t, 1).unwrap(), &[0x90]);
    }

    #[test]
    fn fetch_requires_exec() {
        let mut m = Memory::new();
        let d = m.alloc_region("data", 64, 16, Perms::DATA).unwrap();
        assert_eq!(m.fetch(d, 4), Err(MemFault::NotExecutable { addr: d }));
        let t = m.alloc_region("text", 64, 16, Perms::TEXT).unwrap();
        assert!(m.fetch(t, 10).is_ok());
    }

    #[test]
    fn fetch_clamps_at_region_end() {
        let mut m = Memory::new();
        let t = m.alloc_region("text", 8, 8, Perms::TEXT).unwrap();
        assert_eq!(m.fetch(t + 6, 10).unwrap().len(), 2);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        assert!(matches!(m.load(KBASE, 8), Err(MemFault::Unmapped { .. })));
        assert!(matches!(m.load(0x1000, 8), Err(MemFault::Unmapped { .. })));
        // Gap between regions is unmapped even though backed by the arena.
        let mut m = Memory::new();
        m.alloc_region("a", 16, 16, Perms::DATA).unwrap();
        assert!(matches!(
            m.load(KBASE + 1024, 8),
            Err(MemFault::Unmapped { .. })
        ));
    }

    #[test]
    fn access_at_the_top_of_the_address_space_faults() {
        let mut m = Memory::new();
        m.alloc_region("text", 64, 16, Perms::TEXT).unwrap();
        for (addr, len) in [(u64::MAX, 1), (u64::MAX - 3, 8), (KBASE, u64::MAX)] {
            assert_eq!(m.peek(addr, len), Err(MemFault::Unmapped { addr, len }));
        }
        assert_eq!(
            m.poke(u64::MAX, &[0x90]),
            Err(MemFault::Unmapped {
                addr: u64::MAX,
                len: 1
            })
        );
    }

    #[test]
    fn cross_region_access_faults() {
        let mut m = Memory::new();
        let a = m.alloc_region("a", 16, 16, Perms::DATA).unwrap();
        m.alloc_region("b", 16, 16, Perms::DATA).unwrap();
        // A straddling access is not contained in a single region.
        assert!(m.load(a + 12, 8).is_err());
    }

    #[test]
    fn arena_exhaustion() {
        let mut m = Memory::new();
        assert!(m
            .alloc_region("big", MEM_SIZE + 1, 8, Perms::DATA)
            .is_none());
        assert!(m.alloc_region("all", MEM_SIZE, 8, Perms::DATA).is_some());
        assert!(m.alloc_region("more", 8, 8, Perms::DATA).is_none());
    }

    #[test]
    fn checksums_track_mapped_bytes_only() {
        let mut m = Memory::new();
        let t = m.alloc_region("text", 64, 16, Perms::TEXT).unwrap();
        let d = m.alloc_region("data", 64, 16, Perms::DATA).unwrap();
        let image = m.image_checksum();
        let text = m.text_checksum();
        // Data writes move the image checksum but not the text checksum.
        m.store_u64(d, 42).unwrap();
        assert_ne!(m.image_checksum(), image);
        assert_eq!(m.text_checksum(), text);
        // A trampoline-style poke moves both; restoring the byte restores
        // both.
        let saved = m.peek(t, 1).unwrap()[0];
        m.poke(t, &[0xe9]).unwrap();
        assert_ne!(m.text_checksum(), text);
        m.poke(t, &[saved]).unwrap();
        assert_eq!(m.text_checksum(), text);
        // Mapping a module region changes the checksums; unmapping it
        // restores them even though the arena bytes remain.
        let image = m.image_checksum();
        let text = m.text_checksum();
        let mo = m.alloc_region("mod:a", 32, 16, Perms::TEXT).unwrap();
        m.poke(mo, &[1, 2, 3]).unwrap();
        assert_ne!(m.text_checksum(), text);
        m.unmap_prefix("mod:");
        assert_eq!(m.image_checksum(), image);
        assert_eq!(m.text_checksum(), text);
    }

    /// The remembered text checksum never goes stale. Seeded sequences
    /// of every mutation path — code and data allocation, stores into
    /// writable text and data, pokes into text and data, unmapping,
    /// permission changes — run on an arena and its forks, with every
    /// arena's checksum read after each op, so each op meets a warm
    /// memo. After every op each arena's value must equal a fresh pass.
    #[test]
    fn text_checksum_memo_tracks_every_text_change() {
        const RWX: Perms = Perms {
            read: true,
            write: true,
            exec: true,
        };
        const PERMS: [Perms; 4] = [Perms::TEXT, Perms::DATA, Perms::RO, RWX];
        // xorshift64*: `below(n)` is uniform in `0..n`.
        struct Rng(u64);
        impl Rng {
            fn below(&mut self, n: usize) -> usize {
                self.0 ^= self.0 >> 12;
                self.0 ^= self.0 << 25;
                self.0 ^= self.0 >> 27;
                (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
            }
        }
        let (mut text_ops, mut forks) = (0, 0);
        for seed in 1..=48u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut mems = vec![Memory::new()];
            for step in 0..120 {
                let i = rng.below(mems.len());
                let m = &mut mems[i];
                let picked =
                    (!m.regions.is_empty()).then(|| m.regions[rng.below(m.regions.len())].clone());
                let text_before = m.checksum_where(|r| r.perms.exec);
                match rng.below(8) {
                    0 => {
                        let name = format!("m{}:code{step}", rng.below(4));
                        let perms = PERMS[[0, 3][rng.below(2)]];
                        m.alloc_region(&name, 1 + rng.below(96) as u64, 8, perms);
                    }
                    1 => {
                        let name = format!("m{}:data{step}", rng.below(4));
                        m.alloc_region(&name, 1 + rng.below(96) as u64, 8, PERMS[1 + rng.below(2)]);
                    }
                    2 | 3 => {
                        if let Some(r) = picked {
                            let at = r.start + rng.below(r.size as usize) as u64;
                            let len = (1 + rng.below(8) as u64).min(r.start + r.size - at);
                            let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                            if rng.below(2) == 0 {
                                let _ = m.store(at, &data);
                            } else {
                                m.poke(at, &data).unwrap();
                            }
                        }
                    }
                    4 => {
                        m.unmap_prefix(&format!("m{}:", rng.below(4)));
                    }
                    5 => {
                        if let Some(r) = picked {
                            m.set_region_perms(r.start, PERMS[rng.below(4)]);
                        }
                    }
                    6 if mems.len() < 4 => {
                        let fork = mems[i].fork();
                        assert_eq!(fork.text_memo.get(), mems[i].text_memo.get());
                        mems.push(fork);
                        forks += 1;
                    }
                    _ => {}
                }
                if mems[i].checksum_where(|r| r.perms.exec) != text_before {
                    text_ops += 1;
                }
                for (k, m) in mems.iter().enumerate() {
                    assert_eq!(
                        m.text_checksum(),
                        m.checksum_where(|r| r.perms.exec),
                        "seed {seed} step {step}: arena {k} remembered a stale checksum"
                    );
                }
            }
        }
        assert!(
            text_ops > 1000 && forks > 48,
            "{text_ops} text changes, {forks} forks"
        );
    }

    #[test]
    fn cstr_reading() {
        let mut m = Memory::new();
        let a = m.alloc_region("s", 16, 8, Perms::DATA).unwrap();
        m.store(a, b"panic!\0junk").unwrap();
        assert_eq!(m.read_cstr(a).unwrap(), "panic!");
    }
}
