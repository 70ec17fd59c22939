//! KELF: an ELF-style relocatable object format for K64 code.
//!
//! Ksplice works on "compiled code (and its metadata)" — sections, symbols
//! and relocations (paper §1–§3). KELF is a faithful structural subset of
//! ELF relocatable files (`ET_REL`): named sections with flags and
//! alignment, a symbol table with local/global binding and undefined
//! symbols, and RELA-style relocations carrying an explicit addend. The
//! paper's techniques are stated in ELF terminology (§2) but "apply to any
//! operating system"; the same is true of the format itself.
//!
//! The crate provides:
//!
//! * the in-memory model ([`Object`], [`Section`], [`Symbol`], [`Reloc`]),
//! * a binary writer/reader ([`Object::to_bytes`], [`Object::parse`])
//!   and the byte framing under it ([`Writer`], [`Reader`]), which
//!   update packs share,
//! * relocation arithmetic shared by the module loader and run-pre
//!   matching ([`reloc`]), and
//! * [`ObjectSet`], the archive a full kernel build produces (one
//!   [`Object`] per compilation unit).
//!
//! # Examples
//!
//! ```
//! use ksplice_object::{Object, Section, SectionFlags};
//!
//! let mut obj = Object::new("fs/readdir.kc");
//! obj.add_section(Section::progbits(".text.vfs_readdir", SectionFlags::text(), vec![0x01]));
//! let bytes = obj.to_bytes();
//! let back = Object::parse(&bytes).unwrap();
//! assert_eq!(back.name, "fs/readdir.kc");
//! ```

mod archive;
mod io;
mod model;
pub mod reloc;

pub use archive::ObjectSet;
pub use io::{ParseError, Reader, Writer};
pub use model::{
    Binding, Object, Reloc, RelocKind, Section, SectionFlags, SectionKind, SymKind, Symbol,
    SymbolDef, ValidateError,
};
