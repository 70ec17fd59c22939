//! Binary serialization of KELF objects.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "KELF" magic │ u16 version │ string table │ object body
//! ```
//!
//! The string table is a length-prefixed pool; names elsewhere in the file
//! are `u32` byte offsets into it, exactly like ELF's `.strtab`/`st_name`
//! scheme. The reader validates every offset, count and enum tag, so
//! parsing untrusted bytes can fail but never panic. [`Writer`] and
//! [`Reader`] frame the bytes; KUPD update packs are framed by them too.

use std::collections::HashMap;
use std::fmt;

use crate::model::{
    Binding, Object, Reloc, RelocKind, Section, SectionFlags, SectionKind, SymKind, Symbol,
    SymbolDef,
};

const MAGIC: &[u8; 4] = b"KELF";
const VERSION: u16 = 1;

/// Errors from [`Object::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    Truncated,
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// A name offset points outside the string table.
    BadStringOffset(u32),
    /// The string table holds invalid UTF-8 at this offset.
    BadUtf8(u32),
    /// An enum tag byte is out of range.
    BadTag(&'static str, u8),
    /// Trailing bytes after the object body.
    TrailingBytes(usize),
    /// A blob read as text ([`Reader::str`]) is not UTF-8.
    Utf8(std::str::Utf8Error),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "object file truncated"),
            ParseError::BadMagic => write!(f, "not a KELF object (bad magic)"),
            ParseError::BadVersion(v) => write!(f, "unsupported KELF version {v}"),
            ParseError::BadStringOffset(o) => write!(f, "string offset {o} out of range"),
            ParseError::BadUtf8(o) => write!(f, "invalid UTF-8 in string table at {o}"),
            ParseError::BadTag(what, b) => write!(f, "invalid {what} tag {b:#04x}"),
            ParseError::TrailingBytes(n) => write!(f, "{n} trailing bytes after object body"),
            ParseError::Utf8(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Write-side string pool with deduplication: each string is a blob at
/// the offset names refer to it by.
#[derive(Default)]
struct StrTab {
    pool: Writer,
    index: HashMap<String, u32>,
}

impl StrTab {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&off) = self.index.get(s) {
            return off;
        }
        let off = self.pool.out.len() as u32;
        self.pool.blob(s.as_bytes());
        self.index.insert(s.to_string(), off);
        off
    }
}

/// The byte framing of KELF objects and of the KUPD update packs that
/// carry them: integers little-endian, and a blob as its length (a
/// `u32`) followed by its bytes.
#[derive(Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes `b` with no length.
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
    /// Writes `b` as a blob, which [`Reader::blob`] reads.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

/// The reader of what [`Writer`] writes. Every read checks its length
/// against the input, so untrusted bytes yield an error, never a panic.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let end = self.pos.checked_add(n).ok_or(ParseError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(ParseError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, ParseError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub fn u32(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn i64(&mut self) -> Result<i64, ParseError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a blob written by [`Writer::blob`].
    pub fn blob(&mut self) -> Result<&'a [u8], ParseError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    /// Reads a blob that must be UTF-8 text.
    pub fn str(&mut self) -> Result<&'a str, ParseError> {
        std::str::from_utf8(self.blob()?).map_err(ParseError::Utf8)
    }
}

/// Read-side string table.
struct Strings<'a> {
    pool: &'a [u8],
}

impl<'a> Strings<'a> {
    /// The blob at byte offset `off` of the pool, as text.
    fn get(&self, off: u32) -> Result<String, ParseError> {
        let body = self
            .pool
            .get(off as usize..)
            .and_then(|entry| Reader::new(entry).blob().ok())
            .ok_or(ParseError::BadStringOffset(off))?;
        String::from_utf8(body.to_vec()).map_err(|_| ParseError::BadUtf8(off))
    }
}

impl Object {
    /// Serializes this object to its binary file representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Pass 1: intern all strings so the table can be emitted up front.
        let mut strtab = StrTab::default();
        let name_off = strtab.intern(&self.name);
        let sec_names: Vec<u32> = self
            .sections
            .iter()
            .map(|s| strtab.intern(&s.name))
            .collect();
        let sym_names: Vec<u32> = self
            .symbols
            .iter()
            .map(|s| strtab.intern(&s.name))
            .collect();

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(VERSION);
        w.blob(&strtab.pool.out);
        w.u32(name_off);
        w.u32(self.sections.len() as u32);
        for (sec, &n) in self.sections.iter().zip(&sec_names) {
            w.u32(n);
            w.u8(match sec.kind {
                SectionKind::Progbits => 0,
                SectionKind::Nobits => 1,
                SectionKind::Note => 2,
            });
            w.u8(sec.flags.to_byte());
            w.u32(sec.align);
            w.u64(sec.size);
            w.blob(&sec.data);
            w.u32(sec.relocs.len() as u32);
            for r in &sec.relocs {
                w.u64(r.offset);
                w.u8(r.kind.to_byte());
                w.u32(r.symbol as u32);
                w.i64(r.addend);
            }
        }
        w.u32(self.symbols.len() as u32);
        for (sym, &n) in self.symbols.iter().zip(&sym_names) {
            w.u32(n);
            w.u8(match sym.binding {
                Binding::Local => 0,
                Binding::Global => 1,
            });
            w.u8(match sym.kind {
                SymKind::Func => 0,
                SymKind::Object => 1,
                SymKind::Section => 2,
                SymKind::NoType => 3,
            });
            match sym.def {
                None => w.u8(0),
                Some(d) => {
                    w.u8(1);
                    w.u32(d.section as u32);
                    w.u64(d.offset);
                    w.u64(d.size);
                }
            }
        }
        w.into_bytes()
    }

    /// Parses an object from its binary file representation.
    pub fn parse(bytes: &[u8]) -> Result<Object, ParseError> {
        let mut r = Reader::new(bytes);
        let obj = Object::parse_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(ParseError::TrailingBytes(r.remaining()));
        }
        Ok(obj)
    }

    fn parse_from(r: &mut Reader<'_>) -> Result<Object, ParseError> {
        if r.take(4)? != MAGIC {
            return Err(ParseError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(ParseError::BadVersion(version));
        }
        let strings = Strings { pool: r.blob()? };
        let name = strings.get(r.u32()?)?;
        let nsections = r.u32()?;
        let mut sections = Vec::with_capacity(nsections.min(1 << 16) as usize);
        for _ in 0..nsections {
            let name = strings.get(r.u32()?)?;
            let kind = match r.u8()? {
                0 => SectionKind::Progbits,
                1 => SectionKind::Nobits,
                2 => SectionKind::Note,
                b => return Err(ParseError::BadTag("section kind", b)),
            };
            let flags = SectionFlags::from_byte(r.u8()?);
            let align = r.u32()?;
            let size = r.u64()?;
            let data = r.blob()?.to_vec();
            let nrelocs = r.u32()?;
            let mut relocs = Vec::with_capacity(nrelocs.min(1 << 16) as usize);
            for _ in 0..nrelocs {
                let offset = r.u64()?;
                let kind = RelocKind::from_byte(r.u8()?)
                    .ok_or(ParseError::BadTag("relocation kind", 0xff))?;
                let symbol = r.u32()? as usize;
                let addend = r.i64()?;
                relocs.push(Reloc {
                    offset,
                    kind,
                    symbol,
                    addend,
                });
            }
            sections.push(Section {
                name,
                kind,
                flags,
                align,
                data,
                size,
                relocs,
            });
        }
        let nsymbols = r.u32()?;
        let mut symbols = Vec::with_capacity(nsymbols.min(1 << 16) as usize);
        for _ in 0..nsymbols {
            let name = strings.get(r.u32()?)?;
            let binding = match r.u8()? {
                0 => Binding::Local,
                1 => Binding::Global,
                b => return Err(ParseError::BadTag("binding", b)),
            };
            let kind = match r.u8()? {
                0 => SymKind::Func,
                1 => SymKind::Object,
                2 => SymKind::Section,
                3 => SymKind::NoType,
                b => return Err(ParseError::BadTag("symbol kind", b)),
            };
            let def = match r.u8()? {
                0 => None,
                1 => Some(SymbolDef {
                    section: r.u32()? as usize,
                    offset: r.u64()?,
                    size: r.u64()?,
                }),
                b => return Err(ParseError::BadTag("symbol def", b)),
            };
            symbols.push(Symbol {
                name,
                binding,
                kind,
                def,
            });
        }
        Ok(Object {
            name,
            sections,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Binding, SymKind};

    fn sample() -> Object {
        let mut o = Object::new("net/ipv4/tcp.kc");
        let t = o.add_section(Section::progbits(
            ".text.tcp_input",
            SectionFlags::text(),
            vec![1, 2, 3, 4, 5, 6, 7, 8],
        ));
        o.add_section(Section::nobits(".bss.tcp_hash", 4096));
        let s = o.add_symbol(Symbol::defined(
            "tcp_input",
            Binding::Global,
            SymKind::Func,
            t,
            0,
            8,
        ));
        let e = o.intern_symbol("kmalloc");
        o.sections[t].relocs.push(Reloc {
            offset: 2,
            kind: RelocKind::Pcrel32,
            symbol: e,
            addend: -4,
        });
        let _ = s;
        o
    }

    #[test]
    fn roundtrip() {
        let o = sample();
        let back = Object::parse(&o.to_bytes()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn bad_magic() {
        assert_eq!(Object::parse(b"NOPE"), Err(ParseError::BadMagic));
    }

    #[test]
    fn truncation_everywhere() {
        let bytes = sample().to_bytes();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(Object::parse(&bytes[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(Object::parse(&bytes), Err(ParseError::TrailingBytes(1)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 0xff;
        assert!(matches!(
            Object::parse(&bytes),
            Err(ParseError::BadVersion(_))
        ));
    }
}
